#include "core/executor.hpp"

#include "support/error.hpp"

namespace th {

Executor::Executor(KernelCostModel model, NumericBackend* backend,
                   const ExecOptions& opt)
    : model_(std::move(model)), backend_(backend) {
  TH_CHECK(opt.workers >= 1);
  exec::BatchExecOptions bopt;
  bopt.n_threads = opt.workers;
  bopt.accum = opt.accum;
  bopt.watchdog_s = opt.watchdog_s;
  bopt.shared_pool = opt.pool;
  batch_exec_ = std::make_unique<exec::BatchExecutor>(bopt);
}

Executor::~Executor() = default;

BatchResult Executor::execute(const TaskGraph& graph,
                              const std::vector<index_t>& batch,
                              const std::vector<char>& atomic_flags,
                              const ExecuteOptions& eo) {
  TH_CHECK(!batch.empty());
  TH_CHECK(atomic_flags.size() == batch.size());
  TH_CHECK(eo.skip_numeric == nullptr ||
           eo.skip_numeric->size() == batch.size());

  std::vector<const Task*> tasks;
  std::vector<TaskCost> costs;
  tasks.reserve(batch.size());
  costs.reserve(batch.size());
  for (index_t id : batch) {
    tasks.push_back(&graph.task(id));
    costs.push_back(graph.task(id).cost);
  }

  BatchResult r;
  if (backend_ != nullptr) {
    batch_exec_->execute(*backend_, tasks, atomic_flags, eo.skip_numeric,
                         eo.verify);
    if (eo.run_guards) {
      // Guards scan freshly written factor/update blocks (GETRF diagonals
      // and SSSSM targets); sequential — tiles are small and GuardReport
      // accumulation stays trivially race-free.
      for (index_t i = 0; i < static_cast<index_t>(batch.size()); ++i) {
        if (eo.skip_numeric != nullptr && (*eo.skip_numeric)[i] != 0) {
          continue;
        }
        const TaskType ty = tasks[i]->type;
        if (ty != TaskType::kGetrf && ty != TaskType::kSsssm) continue;
        GuardReport g = backend_->guard_task(*tasks[i], eo.guard);
        if (g.fired()) g.tasks_fired = 1;
        r.guards.merge(g);
      }
    }
  } else {
    // Timing-only replay still materialises the block->task dispatch table
    // so every task's block count is validated the same way.
    const exec::BlockMap map = exec::BlockMap::from_tasks(tasks);
    TH_ASSERT(map.total_blocks() > 0);
  }

  const KernelTiming timing = model_.batch_timing(costs);
  r.seconds = timing.total_s();
  r.host_s = timing.host_s;
  r.tasks = static_cast<int>(batch.size());
  for (const TaskCost& c : costs) r.flops += c.flops;
  return r;
}

}  // namespace th
