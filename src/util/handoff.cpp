#include "util/handoff.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace meda::util {

namespace detail {

/// One handed piece of work and how far it got. `state` moves kQueued →
/// kRunning → kDone/kFailed under a helper, or kQueued → kWithdrawn under
/// the owner's settle(); whoever moves it out of kQueued owns the work.
struct HandoffJob {
  enum class State : unsigned char {
    kQueued, kRunning, kDone, kFailed, kWithdrawn
  };

  std::function<void()> work;
  std::mutex mu;
  std::condition_variable finished;
  State state = State::kQueued;
  /// Set once the work left kRunning, for an owner waiting on the spot.
  std::atomic<bool> over{false};
};

}  // namespace detail

namespace {

using detail::HandoffJob;
using State = HandoffJob::State;

/// How long an owner waits on the spot for a running piece of work before
/// it sleeps: longer than most syntheses take. A thread that sleeps here
/// is often woken on the helper's CPU, and pays for the move in cold
/// caches for the rest of its cycle.
constexpr auto kSpinLimit = std::chrono::milliseconds(2);

std::atomic<int> g_busy{0};

#ifdef __linux__
/// The CPUs this process may run on.
cpu_set_t allowed_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof cpus, &cpus) != 0) CPU_ZERO(&cpus);
  return cpus;
}
#endif

/// Runs @p job if nobody withdrew it first.
void run(HandoffJob& job) {
  {
    const std::lock_guard<std::mutex> lock(job.mu);
    if (job.state != State::kQueued) return;
    job.state = State::kRunning;
  }
  g_busy.fetch_add(1, std::memory_order_relaxed);
  bool ok = true;
  try {
    job.work();
  } catch (...) {
    ok = false;
  }
  // Not busy before the owner can see the work finished.
  g_busy.fetch_sub(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(job.mu);
    job.state = ok ? State::kDone : State::kFailed;
  }
  job.over.store(true, std::memory_order_release);
  job.finished.notify_all();
}

/// The process's helper threads. Each takes one piece of work at a time,
/// posted to it directly by offer(); work no helper is free for is never
/// run, and its owner does it instead.
class Helpers {
 public:
  explicit Helpers(int threads) {
    for (int i = 0; i < threads; ++i)
      slots_.push_back(std::make_unique<Slot>());
    for (const std::unique_ptr<Slot>& slot : slots_)
      slot->thread = std::thread([this, s = slot.get()] { loop(*s); });
  }

  ~Helpers() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    for (const std::unique_ptr<Slot>& slot : slots_) slot->posted.notify_one();
    for (const std::unique_ptr<Slot>& slot : slots_) slot->thread.join();
  }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  /// Posts @p job to an idle helper, kept off the calling thread's CPU;
  /// false when every helper is busy.
  bool offer(const std::shared_ptr<HandoffJob>& job) {
    Slot* slot = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto idle = std::ranges::find_if(
          slots_, [](const std::unique_ptr<Slot>& s) { return !s->job; });
      if (idle == slots_.end()) return false;
      slot = idle->get();
      slot->job = job;
      keep_off_calling_cpu(*slot);
    }
    slot->posted.notify_one();
    return true;
  }

 private:
  struct Slot {
    std::thread thread;
    std::shared_ptr<HandoffJob> job;  ///< set while posted or running
    std::condition_variable posted;
  };

  void loop(Slot& slot) {
    for (;;) {
      std::shared_ptr<HandoffJob> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        slot.posted.wait(lock, [&] { return stopping_ || slot.job; });
        if (!slot.job) return;  // stopping
        job = slot.job;
      }
      run(*job);
      const std::lock_guard<std::mutex> lock(mu_);
      slot.job.reset();
    }
  }

  /// Lets @p slot's helper run wherever the process may, except on the
  /// calling thread's CPU: some kernels wake a thread on the CPU of the
  /// thread that woke it, where the two would take turns instead of running
  /// at once.
  void keep_off_calling_cpu(Slot& slot) {
#ifdef __linux__
    cpu_set_t cpus = cpus_;
    const int self = sched_getcpu();
    if (self >= 0 && self < CPU_SETSIZE && CPU_ISSET(self, &cpus) &&
        CPU_COUNT(&cpus) > 1)
      CPU_CLR(self, &cpus);
    // Placement only: a refusal leaves the helper where it may run.
    (void)pthread_setaffinity_np(slot.thread.native_handle(), sizeof cpus,
                                 &cpus);
#else
    (void)slot;
#endif
  }

  std::mutex mu_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Slot>> slots_;
#ifdef __linux__
  const cpu_set_t cpus_ = allowed_cpus();
#endif
};

Helpers& helpers() {
  static Helpers instance(helper_count());
  return instance;
}

}  // namespace

int helper_count() {
  static const int count = [] {
#ifdef __linux__
    const cpu_set_t cpus = allowed_cpus();
    if (CPU_COUNT(&cpus) > 0) return CPU_COUNT(&cpus) - 1;
#endif
    return std::max(
        0, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }();
  return count;
}

int helpers_busy() { return g_busy.load(std::memory_order_relaxed); }

Handoff::Handoff(std::function<void()> work)
    : job_(std::make_shared<HandoffJob>()) {
  job_->work = std::move(work);
  if (helper_count() > 0) helpers().offer(job_);
}

Handoff::~Handoff() { settle(); }

bool Handoff::settle() {
  std::unique_lock<std::mutex> lock(job_->mu);
  if (job_->state == State::kQueued) {
    job_->state = State::kWithdrawn;
    job_->work = nullptr;  // a posted copy may outlive the owner's state
  }
  if (job_->state == State::kRunning) {
    lock.unlock();
    const auto limit = std::chrono::steady_clock::now() + kSpinLimit;
    while (!job_->over.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < limit) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    lock.lock();
    job_->finished.wait(lock,
                        [this] { return job_->state != State::kRunning; });
  }
  return job_->state == State::kDone;
}

}  // namespace meda::util
