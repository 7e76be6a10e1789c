#include "store/checkpoint_service.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"

namespace dssj::store {

CheckpointService::CheckpointService() : thread_([this] { Run(); }) {}

CheckpointService::~CheckpointService() { Stop(); }

void CheckpointService::Submit(CheckpointJob job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      ++tasks_[job.task_id].submitted;
      queue_.push_back(std::move(job));
      cv_.notify_one();
      return;
    }
  }
  // The run is over (an executor adopted by a migration that raced the end
  // of a failed run): skip the job as a wedged store would.
  if (job.on_complete) job.on_complete(false, 0, 0);
}

uint64_t CheckpointService::DurableEpoch(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? 0 : it->second.durable;
}

bool CheckpointService::DurableSet(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it != tasks_.end() && it->second.durable_set;
}

bool CheckpointService::Wedged(int task_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it != tasks_.end() && it->second.wedged;
}

void CheckpointService::Barrier(int task_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  const uint64_t target = it->second.submitted;
  done_cv_.wait(lock, [&] {
    auto jt = tasks_.find(task_id);
    return jt == tasks_.end() || jt->second.processed >= target;
  });
}

void CheckpointService::Reset(int task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  it->second.durable = 0;
  it->second.durable_set = false;
  it->second.wedged = false;
}

void CheckpointService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
    cv_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
}

void CheckpointService::Run() {
  for (;;) {
    CheckpointJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      if (tasks_[job.task_id].wedged) {
        // The store failed earlier; keep the durable epoch pinned so the
        // task never truncates replay state it still needs.
        ++tasks_[job.task_id].processed;
        lock.unlock();
        if (job.on_complete) job.on_complete(false, 0, 0);
        done_cv_.notify_all();
        continue;
      }
    }

    const int64_t t0 = NowNanos();
    std::string payload;
    if (job.blob.encode) job.blob.encode(&payload);
    const Status st = job.is_base ? job.store->WriteBase(job.epoch, payload)
                                  : job.store->WriteDelta(job.epoch, payload);
    const uint64_t nanos = static_cast<uint64_t>(NowNanos() - t0);

    {
      std::lock_guard<std::mutex> lock(mu_);
      TaskState& ts = tasks_[job.task_id];
      if (st.ok()) {
        ts.durable = job.epoch;
        ts.durable_set = true;
      } else {
        ts.wedged = true;
        LOG(ERROR) << "checkpoint write failed for task " << job.task_id << " epoch "
                   << job.epoch << ": " << st.ToString() << " (store wedged)";
      }
      ++ts.processed;
    }
    if (job.on_complete) job.on_complete(st.ok(), st.ok() ? payload.size() : 0, nanos);
    done_cv_.notify_all();
  }
}

}  // namespace dssj::store
