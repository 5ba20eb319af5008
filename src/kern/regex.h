// Regular expression DP kernel: a from-scratch Thompson-NFA compiler with
// two executors, neither of which backtracks. The default is a lazy DFA:
// each DFA state is the sorted set of Pike-VM thread PCs after epsilon
// closure, and a state's 256 transitions are filled on first use in a
// table that lives for one call (so const methods stay reentrant). Most
// text positions then cost one table lookup. The table holds at most
// kMaxDfaStates states; a call that would need more finishes on the Pike
// VM, which also serves as the test oracle (Engine::kPikeVm). Both
// executors are linear in the text length per start position. Models
// the BlueField-2 RegEx accelerator's workload; the same code runs when
// the kernel is placed on a CPU.
//
// Supported syntax: literals, '.', escapes (\d \D \w \W \s \S \n \t \r and
// escaped metacharacters), character classes [a-z0-9] and [^...],
// alternation '|', groups '(...)', quantifiers '*' '+' '?' '{m}' '{m,}'
// '{m,n}', anchors '^' and '$'.

#ifndef DPDPU_KERN_REGEX_H_
#define DPDPU_KERN_REGEX_H_

#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dpdpu::kern {

class Regex {
 public:
  /// The executor a call runs on. kLazyDfa falls back to the Pike VM by
  /// itself when it reaches kMaxDfaStates; kPikeVm forces the NFA
  /// simulation throughout (the oracle the DFA is tested against).
  enum class Engine : uint8_t { kLazyDfa, kPikeVm };

  /// Bound on the DFA states one call builds (blow-up patterns such as
  /// (a|b)*a(a|b){12}); 256 transitions of 4 bytes each per state.
  static constexpr size_t kMaxDfaStates = 2048;

  /// What one CountMatches call built and ran on.
  struct ScanStats {
    size_t dfa_states = 0;          // including the dead state
    bool pike_vm_fallback = false;  // the state cap was hit mid-scan
  };

  /// Compiles `pattern`; fails with InvalidArgument on syntax errors.
  static Result<Regex> Compile(std::string_view pattern);

  /// True when the entire text matches the pattern.
  bool FullMatch(std::string_view text,
                 Engine engine = Engine::kLazyDfa) const;

  /// True when any substring matches ("search" semantics).
  bool PartialMatch(std::string_view text,
                    Engine engine = Engine::kLazyDfa) const;

  /// Number of non-overlapping matches, scanning greedily left to right
  /// (each match takes the longest extent from its start position, and
  /// the scan resumes at max(end, start + 1)).
  size_t CountMatches(std::string_view text,
                      Engine engine = Engine::kLazyDfa,
                      ScanStats* stats = nullptr) const;

  const std::string& pattern() const { return pattern_; }
  size_t instruction_count() const { return program_.size(); }

 private:
  enum class Op : uint8_t { kChar, kSplit, kJump, kAssertBegin, kAssertEnd,
                            kMatch };

  struct Inst {
    Op op;
    int x = 0;  // kChar: class index; kSplit/kJump: target
    int y = 0;  // kSplit: second target
  };

  // Per-call executor state: the lazy DFA table and the Pike VM's thread
  // lists, both reused across the start positions of one call.
  class Matcher;

  Regex() = default;

  std::string pattern_;
  std::vector<Inst> program_;
  std::vector<std::bitset<256>> classes_;
};

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_REGEX_H_
