// DP kernels — the paper's central Compute Engine abstraction (Section 5):
// "an extensible set of specialized functions built in DPDPU that
// optimizes sproc execution efficiency... we require that each DP kernel
// can be executed on any compute hardware." A kernel couples one real
// software implementation (producing identical output on every target)
// with a CPU cost model and an optional ASIC affinity; where it actually
// runs is a placement decision (specified or scheduled execution).

#ifndef DPDPU_CORE_COMPUTE_DP_KERNEL_H_
#define DPDPU_CORE_COMPUTE_DP_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "hw/accelerator.h"

namespace dpdpu::ce {

/// String key/value parameters for a kernel invocation (e.g. the regex
/// pattern, a predicate column/op/literal).
using KernelParams = std::map<std::string, std::string>;

/// The real implementation: same bytes out regardless of placement.
/// Copyable, unlike every other callback: a DpKernel is a value that
/// registries hand out by copy, and wrappers capture a kernel's fn by copy.
using KernelFn = std::function<  // simlint:allow(R8): copied with DpKernel
    Result<Buffer>(ByteSpan input, const KernelParams& params)>;

/// A registered DP kernel.
struct DpKernel {
  std::string name;
  /// ASIC able to execute this kernel, if any DPU model carries one.
  std::optional<hw::AcceleratorKind> asic_kind;
  /// Software cost model in reference cycles (see hw/calibration.h).
  double cpu_cycles_per_byte = 1.0;
  uint64_t fixed_cycles = 0;
  KernelFn fn;
};

/// Name -> kernel lookup. `Builtin()` registers the kernels the paper
/// names: compression/decompression, encryption, RegEx, dedup, CRC, and
/// the relational pushdown kernels (filter, aggregate).
class KernelRegistry {
 public:
  KernelRegistry() = default;

  /// Registry pre-loaded with the built-in kernels.
  static KernelRegistry Builtin();

  /// Fails with AlreadyExists on duplicate names.
  Status Register(DpKernel kernel);

  /// nullptr when unknown.
  const DpKernel* Find(const std::string& name) const;

  /// "The user can query what DP kernels are available" (Section 5).
  std::vector<std::string> List() const;

 private:
  std::map<std::string, DpKernel> kernels_;
};

// Builtin kernel names.
inline constexpr char kKernelCompress[] = "compress";
inline constexpr char kKernelDecompress[] = "decompress";
inline constexpr char kKernelEncrypt[] = "encrypt";
inline constexpr char kKernelDecrypt[] = "decrypt";
inline constexpr char kKernelRegexCount[] = "regex_count";
inline constexpr char kKernelCrc32[] = "crc32";
inline constexpr char kKernelDedupChunk[] = "dedup_chunk";
inline constexpr char kKernelFilter[] = "filter";
inline constexpr char kKernelAggregate[] = "aggregate";

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_DP_KERNEL_H_
