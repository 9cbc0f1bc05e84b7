#include "src/rtmach/kernel.h"

#include <utility>

#include "src/base/logging.h"

namespace crrt {

Kernel::Kernel() : Kernel(Options{}) {}

Kernel::Kernel(const Options& options)
    : owned_engine_(std::make_unique<crsim::Engine>()),
      engine_(owned_engine_.get()),
      cpu_(*engine_, options.policy, options.quantum) {}

Kernel::Kernel(crsim::Engine& shared_engine, const Options& options)
    : engine_(&shared_engine), cpu_(*engine_, options.policy, options.quantum) {}

crsim::Task Kernel::Spawn(std::string name, int priority,
                          std::function<crsim::Task(ThreadContext&)> body) {
  ++live_threads_;
  // The wrapper's frame owns the thread's context, so the context lives
  // exactly as long as the thread: it is freed when the body finishes, or
  // when a thread still parked at teardown has its frame destroyed.
  auto wrapper = [](Kernel* kernel, std::unique_ptr<ThreadContext> ctx,
                    std::function<crsim::Task(ThreadContext&)> fn) -> crsim::Task {
    co_await fn(*ctx);
    --kernel->live_threads_;
  };
  return wrapper(this, std::make_unique<ThreadContext>(*this, std::move(name), priority),
                 std::move(body));
}

void Kernel::WireMemory(const std::string& owner, std::int64_t bytes) {
  CRAS_CHECK(bytes >= 0);
  wired_bytes_ += bytes;
  CRAS_LOG(kDebug) << owner << " wired " << bytes << " bytes (total " << wired_bytes_ << ")";
}

void Kernel::UnwireMemory(const std::string& owner, std::int64_t bytes) {
  CRAS_CHECK(bytes >= 0);
  wired_bytes_ -= bytes;
  CRAS_CHECK(wired_bytes_ >= 0) << owner << " unwired more than it wired";
}

}  // namespace crrt
