#include "core/storage/storage_engine.h"
#include "hw/calibration.h"

namespace dpdpu::se {

TrafficDirector::Route TrafficDirector::Classify(
    const RemoteRequest& request) {
  // The decision runs on the DPU data path for every request packet.
  server_->dpu_cpu().Execute(hw::cal::kTrafficDirectorCyclesPerPacket);
  bool offloadable = classifier_ ? classifier_(request)
                                 : (request.flags &
                                    kRequestFlagRequiresHost) == 0;
  if (offloadable) {
    ++to_dpu_;
    return Route::kDpu;
  }
  ++to_host_;
  return Route::kHost;
}

}  // namespace dpdpu::se
