#include "core/compute/compute_engine.h"

#include "hw/calibration.h"

namespace dpdpu::ce {

ComputeEngine::ComputeEngine(hw::Server* server, KernelRegistry registry,
                             ComputeEngineOptions options)
    : server_(server),
      registry_(std::move(registry)),
      options_(options),
      placement_(server) {
  for (const auto& aspec : server->spec().dpu.accelerators) {
    AsicState state;
    state.queue = std::make_unique<AdmissionQueue>(
        options_.asic_admission, options_.drr_quantum_bytes);
    asic_state_.emplace(aspec.kind, std::move(state));
  }
}

bool ComputeEngine::TargetAvailable(const std::string& kernel,
                                    ExecTarget target) const {
  const DpKernel* k = registry_.Find(kernel);
  return k != nullptr && placement_.Available(*k, target);
}

const TargetStats& ComputeEngine::target_stats(ExecTarget target) const {
  static const TargetStats kEmpty;
  auto it = stats_.find(target);
  return it == stats_.end() ? kEmpty : it->second;
}

Result<WorkItemPtr> ComputeEngine::Invoke(const std::string& kernel,
                                          Buffer input, KernelParams params,
                                          InvokeOptions options) {
  const DpKernel* k = registry_.Find(kernel);
  if (k == nullptr) return Status::NotFound("compute: kernel " + kernel);

  ExecTarget target = options.target;
  if (target == ExecTarget::kAuto) {
    target = placement_.Choose(*k, input.size(), options_.policy);
  } else if (!placement_.Available(*k, target)) {
    // Specified execution on missing hardware: the Fig 6 None return.
    return Status::Unavailable(
        "compute: " + kernel + " cannot run on " +
        std::string(ExecTargetName(target)) + " on this DPU");
  }

  auto item = std::make_shared<WorkItem>();
  item->set_submitted_at(server_->simulator()->now());
  TargetStats& stats = stats_[target];
  ++stats.jobs;
  stats.bytes += input.size();

  if (target == ExecTarget::kDpuAsic) {
    RunOnAsic(*k, std::move(input), std::move(params), item,
              options.tenant);
  } else {
    Dispatch(*k, target, std::move(input), std::move(params), item);
  }
  return item;
}

void ComputeEngine::Dispatch(const DpKernel& kernel, ExecTarget target,
                             Buffer input, KernelParams params,
                             WorkItemPtr item) {
  sim::SimTime service = placement_.ServiceTime(kernel, input.size(),
                                                target);
  placement_.OnDispatch(target, service);

  switch (target) {
    case ExecTarget::kDpuCpu: {
      sim::SimTime t = server_->dpu_cpu().WorkTime(
          input.size(), kernel.cpu_cycles_per_byte, kernel.fixed_cycles);
      server_->dpu_cpu().ExecuteFor(
          t, [this, k = &kernel, target, service, input = std::move(input),
              params = std::move(params), item]() mutable {
            placement_.OnComplete(target, service);
            Finish(*k, target, std::move(input), std::move(params), item);
          });
      break;
    }
    case ExecTarget::kHostCpu: {
      // DMA the input to host memory, compute there, DMA the result back.
      size_t bytes = input.size();
      server_->pcie().Dma(bytes, [this, k = &kernel, target, service, bytes,
                                  input = std::move(input),
                                  params = std::move(params),
                                  item]() mutable {
        sim::SimTime t = server_->host_cpu().WorkTime(
            bytes, k->cpu_cycles_per_byte, k->fixed_cycles);
        server_->host_cpu().ExecuteFor(
            t, [this, k, target, service, input = std::move(input),
                params = std::move(params), item]() mutable {
              // Run the real kernel now so the return DMA carries the
              // actual output size.
              Result<Buffer> result = k->fn(input.span(), params);
              size_t out_bytes = result.ok() ? result->size() : 0;
              server_->pcie().Dma(
                  out_bytes, [this, target, service, item,
                              result = std::move(result)]() mutable {
                    placement_.OnComplete(target, service);
                    item->Complete(std::move(result), target,
                                   server_->simulator()->now());
                  });
            });
      });
      break;
    }
    case ExecTarget::kPcieAccel: {
      hw::PcieAccelerator* accel = server_->pcie_accelerator();
      DPDPU_CHECK(accel != nullptr);
      size_t bytes = input.size();
      double cpb = kernel.cpu_cycles_per_byte;
      // DMA in, device kernel, run the real fn, DMA the result out.
      server_->pcie().Dma(bytes, [this, k = &kernel, target, service,
                                  accel, bytes, cpb,
                                  input = std::move(input),
                                  params = std::move(params),
                                  item]() mutable {
        accel->SubmitJob(
            bytes, cpb,
            [this, k, target, service, input = std::move(input),
             params = std::move(params), item]() mutable {
              Result<Buffer> result = k->fn(input.span(), params);
              size_t out_bytes = result.ok() ? result->size() : 0;
              server_->pcie().Dma(
                  out_bytes, [this, target, service, item,
                              result = std::move(result)]() mutable {
                    placement_.OnComplete(target, service);
                    item->Complete(std::move(result), target,
                                   server_->simulator()->now());
                  });
            });
      });
      break;
    }
    default:
      DPDPU_CHECK(false && "Dispatch only handles CPU targets");
  }
}

Result<WorkItemPtr> ComputeEngine::InvokeFused(
    const std::vector<FusedStep>& steps, Buffer input,
    InvokeOptions options) {
  if (steps.empty()) {
    return Status::InvalidArgument("compute: empty fused chain");
  }
  // Resolve the chain and its combined cost model.
  std::vector<const DpKernel*> kernels;
  double total_cpb = 0;
  uint64_t total_fixed = 0;
  for (const FusedStep& step : steps) {
    const DpKernel* k = registry_.Find(step.kernel);
    if (k == nullptr) {
      return Status::NotFound("compute: kernel " + step.kernel);
    }
    kernels.push_back(k);
    total_cpb += k->cpu_cycles_per_byte;
    total_fixed += k->fixed_cycles;
  }

  ExecTarget target = options.target;
  auto fusable = [](ExecTarget t) {
    return t == ExecTarget::kPcieAccel || t == ExecTarget::kHostCpu ||
           t == ExecTarget::kDpuCpu;
  };
  // A synthetic kernel carrying the combined cost drives placement.
  DpKernel fused;
  fused.name = "fused";
  fused.cpu_cycles_per_byte = total_cpb;
  fused.fixed_cycles = total_fixed;
  if (target == ExecTarget::kAuto) {
    ExecTarget best = ExecTarget::kDpuCpu;
    sim::SimTime best_eta =
        placement_.EstimateCompletion(fused, input.size(),
                                      ExecTarget::kDpuCpu);
    for (ExecTarget t : {ExecTarget::kHostCpu, ExecTarget::kPcieAccel}) {
      if (!placement_.Available(fused, t)) continue;
      sim::SimTime eta = placement_.EstimateCompletion(fused, input.size(),
                                                       t);
      if (eta < best_eta) {
        best_eta = eta;
        best = t;
      }
    }
    target = best;
  } else if (!fusable(target)) {
    return Status::NotSupported(
        "compute: fused chains cannot run on fixed-function ASICs");
  } else if (!placement_.Available(fused, target)) {
    return Status::Unavailable("compute: fused target unavailable");
  }

  auto item = std::make_shared<WorkItem>();
  item->set_submitted_at(server_->simulator()->now());
  TargetStats& stats = stats_[target];
  ++stats.jobs;
  stats.bytes += input.size();

  // The chain's real execution: apply every kernel fn in order.
  auto run_chain = [kernels,
                    step_params = steps](ByteSpan in) -> Result<Buffer> {
    Buffer current(in.data(), in.size());
    for (size_t i = 0; i < kernels.size(); ++i) {
      DPDPU_ASSIGN_OR_RETURN(current, kernels[i]->fn(
                                          current.span(),
                                          step_params[i].params));
    }
    return current;
  };

  sim::SimTime service = placement_.ServiceTime(fused, input.size(),
                                                target);
  placement_.OnDispatch(target, service);
  size_t bytes = input.size();

  switch (target) {
    case ExecTarget::kDpuCpu: {
      sim::SimTime t = server_->dpu_cpu().WorkTime(bytes, total_cpb,
                                                   total_fixed);
      server_->dpu_cpu().ExecuteFor(
          t, [this, target, service, run_chain,
              input = std::move(input), item]() mutable {
            placement_.OnComplete(target, service);
            item->Complete(run_chain(input.span()), target,
                           server_->simulator()->now());
          });
      break;
    }
    case ExecTarget::kHostCpu: {
      server_->pcie().Dma(bytes, [this, target, service, run_chain, bytes,
                                  total_cpb, total_fixed,
                                  input = std::move(input),
                                  item]() mutable {
        sim::SimTime t = server_->host_cpu().WorkTime(bytes, total_cpb,
                                                      total_fixed);
        server_->host_cpu().ExecuteFor(
            t, [this, target, service, run_chain,
                input = std::move(input), item]() mutable {
              Result<Buffer> result = run_chain(input.span());
              size_t out_bytes = result.ok() ? result->size() : 0;
              server_->pcie().Dma(
                  out_bytes, [this, target, service, item,
                              result = std::move(result)]() mutable {
                    placement_.OnComplete(target, service);
                    item->Complete(std::move(result), target,
                                   server_->simulator()->now());
                  });
            });
      });
      break;
    }
    case ExecTarget::kPcieAccel: {
      hw::PcieAccelerator* accel = server_->pcie_accelerator();
      server_->pcie().Dma(bytes, [this, target, service, run_chain, accel,
                                  bytes, total_cpb,
                                  input = std::move(input),
                                  item]() mutable {
        accel->SubmitJob(
            bytes, total_cpb,
            [this, target, service, run_chain, input = std::move(input),
             item]() mutable {
              Result<Buffer> result = run_chain(input.span());
              size_t out_bytes = result.ok() ? result->size() : 0;
              server_->pcie().Dma(
                  out_bytes, [this, target, service, item,
                              result = std::move(result)]() mutable {
                    placement_.OnComplete(target, service);
                    item->Complete(std::move(result), target,
                                   server_->simulator()->now());
                  });
            });
      });
      break;
    }
    default:
      DPDPU_CHECK(false);
  }
  return item;
}

void ComputeEngine::RunOnAsic(const DpKernel& kernel, Buffer input,
                              KernelParams params, WorkItemPtr item,
                              uint32_t tenant) {
  DPDPU_CHECK(kernel.asic_kind.has_value());
  hw::Accelerator* asic = server_->accelerator(*kernel.asic_kind);
  DPDPU_CHECK(asic != nullptr);
  AsicState& state = asic_state_[*kernel.asic_kind];

  // NOTE: size captured before the lambda's move-capture consumes input
  // (argument evaluation order is unspecified).
  size_t bytes = input.size();
  sim::SimTime service = asic->JobTime(bytes);
  placement_.OnDispatch(ExecTarget::kDpuAsic, service);

  if (state.in_flight < asic->spec().max_concurrency) {
    StartAsicJob(kernel, asic, std::move(input), std::move(params), item);
  } else {
    state.queue->Push(
        tenant, bytes,
        [this, k = &kernel, asic, input = std::move(input),
         params = std::move(params), item]() mutable {
          StartAsicJob(*k, asic, std::move(input), std::move(params), item);
        });
  }
}

void ComputeEngine::StartAsicJob(const DpKernel& kernel,
                                 hw::Accelerator* asic, Buffer input,
                                 KernelParams params, WorkItemPtr item) {
  AsicState& state = asic_state_[asic->kind()];
  ++state.in_flight;
  // Size must be read before the move-capture below consumes input.
  size_t bytes = input.size();
  sim::SimTime service = asic->JobTime(bytes);
  hw::AcceleratorKind kind = asic->kind();
  asic->SubmitJob(bytes,
                  [this, k = &kernel, kind, service,
                   input = std::move(input), params = std::move(params),
                   item]() mutable {
                    AsicState& st = asic_state_[kind];
                    --st.in_flight;
                    placement_.OnComplete(ExecTarget::kDpuAsic, service);
                    Finish(*k, ExecTarget::kDpuAsic, std::move(input),
                           std::move(params), item);
                    PumpAsicQueue(kind);
                  });
}

void ComputeEngine::PumpAsicQueue(hw::AcceleratorKind kind) {
  AsicState& state = asic_state_[kind];
  hw::Accelerator* asic = server_->accelerator(kind);
  while (state.in_flight < asic->spec().max_concurrency &&
         !state.queue->empty()) {
    UniqueFunction<void()> dispatch;
    if (!state.queue->Pop(&dispatch)) break;
    dispatch();
  }
}

void ComputeEngine::Finish(const DpKernel& kernel, ExecTarget target,
                           Buffer input, KernelParams params,
                           WorkItemPtr item) {
  Result<Buffer> result = kernel.fn(input.span(), params);
  item->Complete(std::move(result), target, server_->simulator()->now());
}

// ---------------------------------------------------------------------------
// Sprocs.
// ---------------------------------------------------------------------------

Status ComputeEngine::RegisterSproc(const std::string& name, SprocFn fn) {
  if (sprocs_.count(name) > 0) {
    return Status::AlreadyExists("sproc: " + name);
  }
  sprocs_[name] = std::move(fn);
  return Status::Ok();
}

Status ComputeEngine::InvokeSproc(const std::string& name) {
  auto it = sprocs_.find(name);
  if (it == sprocs_.end()) return Status::NotFound("sproc: " + name);
  ++sprocs_invoked_;
  // The sproc body runs on a DPU CPU core; charge the dispatch. The
  // context is engine-owned so async continuations may reference it.
  // With migration enabled, a backlogged DPU run queue pushes new
  // invocations to host cores (iPipe-style load migration), paying one
  // PCIe crossing for the invocation context.
  if (options_.sproc_migration &&
      server_->dpu_cpu().resource().queue_length() >
          options_.sproc_migration_queue_threshold) {
    ++sprocs_migrated_;
    // The engine and its sproc table belong to the server, which
    // outlives the run; sprocs never unregister mid-run.
    // simlint:allow(R6): engine outlives the drained event heap
    server_->simulator()->Schedule(
        server_->pcie().spec().latency_ns, [this, fn = &it->second] {
          server_->host_cpu().Execute(
              hw::cal::kKernelDispatchCycles,
              [this, fn] { (*fn)(sproc_context_); });
        });
    return Status::Ok();
  }
  server_->dpu_cpu().Execute(
      hw::cal::kKernelDispatchCycles,
      [this, fn = &it->second] { (*fn)(sproc_context_); });
  return Status::Ok();
}

std::vector<std::string> ComputeEngine::Sprocs() const {
  std::vector<std::string> names;
  for (const auto& [name, fn] : sprocs_) names.push_back(name);
  return names;
}

}  // namespace dpdpu::ce
