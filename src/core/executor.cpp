#include "core/executor.hpp"

#include "support/error.hpp"

namespace th {

Executor::Executor(KernelCostModel model, NumericBackend* backend,
                   const ExecOptions& opt)
    : model_(std::move(model)), backend_(backend) {
  TH_CHECK(opt.workers >= 1);
  // Timing-only replays execute no numerics, so they start no threads.
  if (backend_ == nullptr) return;
  exec::BatchExecOptions bopt;
  bopt.n_threads = opt.workers;
  bopt.watchdog_s = opt.watchdog_s;
  bopt.shared_pool = opt.pool;
  batch_exec_ = std::make_unique<exec::BatchExecutor>(bopt);
}

const exec::ExecStats& Executor::exec_stats() const {
  static const exec::ExecStats kNone{};
  return batch_exec_ != nullptr ? batch_exec_->stats() : kNone;
}

Executor::~Executor() = default;

void Executor::gather(const TaskGraph& graph, const index_t* first,
                      const index_t* last) {
  tasks_.clear();
  for (const index_t* id = first; id != last; ++id) {
    tasks_.push_back(&graph.task(*id));
  }
}

void Executor::run(const TaskGraph& graph, const index_t* first,
                   const index_t* last) {
  TH_CHECK(backend_ != nullptr && first != last);
  gather(graph, first, last);
  batch_exec_->execute(*backend_, tasks_, nullptr);
}

BatchResult Executor::execute(const TaskGraph& graph,
                              const std::vector<index_t>& batch,
                              const ExecuteOptions& eo) {
  TH_CHECK(!batch.empty());
  TH_CHECK(eo.skip_numeric == nullptr ||
           eo.skip_numeric->size() == batch.size());

  gather(graph, batch.data(), batch.data() + batch.size());
  costs_.clear();
  for (const Task* t : tasks_) costs_.push_back(t->cost);

  BatchResult r;
  if (backend_ != nullptr) {
    batch_exec_->execute(*backend_, tasks_, eo.skip_numeric, eo.verify);
    if (eo.run_guards) {
      // Guards scan freshly written factor/update blocks (GETRF diagonals
      // and SSSSM targets); sequential — tiles are small and GuardReport
      // accumulation stays trivially race-free.
      for (index_t i = 0; i < static_cast<index_t>(batch.size()); ++i) {
        if (eo.skip_numeric != nullptr && (*eo.skip_numeric)[i] != 0) {
          continue;
        }
        const TaskType ty = tasks_[i]->type;
        if (ty != TaskType::kGetrf && ty != TaskType::kSsssm) continue;
        GuardReport g = backend_->guard_task(*tasks_[i], eo.guard);
        if (g.fired()) g.tasks_fired = 1;
        r.guards.merge(g);
      }
    }
  }

  const KernelTiming timing = model_.batch_timing(costs_);
  r.seconds = timing.total_s();
  r.host_s = timing.host_s;
  r.tasks = static_cast<int>(batch.size());
  for (const TaskCost& c : costs_) r.flops += c.flops;
  return r;
}

}  // namespace th
