// Table 5: data-precision SysNoise on NLP — OPT-mini sizes x four
// multiple-choice tasks; FP32 accuracy and FP16/INT8 deltas. Expected
// shape vs the paper: both precision deltas are small and task-dependent
// (sometimes negative), larger models score higher.
//
// Runs on the plan -> execute -> merge stack (bench_util.h): one SweepPlan
// per (model, subtask) over the NLP-applicable axes (Tokenizer, Precision,
// Backend), so the bench supports --emit-plan/--shard/--merge and the
// distributed --coordinate/--connect/--submit modes. The classic Table 5
// cells are rendered from the plans' raw metrics, byte-identical to the
// pre-plan monolithic bench; the full per-axis report additionally lands in
// table5_nlp_axes.{txt,csv}.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/report.h"
#include "nlp/eval_task.h"

using namespace sysnoise;
using namespace sysnoise::nlp;

namespace {

using Role = core::PlannedConfig::Role;

// `runs` is model-major, subtask-minor: zoo order x kNumTasks.
void render_and_write(const std::vector<bench::PlanRun>& runs) {
  std::vector<std::string> headers = {"Architecture"};
  for (int k = 0; k < kNumTasks; ++k)
    headers.push_back(std::string(task_name(static_cast<TaskKind>(k))) +
                      " FP32/dFP16/dINT8");
  core::TextTable table(headers);
  std::string csv = "model,task,fp32,d_fp16,d_int8\n";
  std::vector<core::AxisReport> reports;

  const std::size_t models = runs.size() / static_cast<std::size_t>(kNumTasks);
  for (std::size_t m = 0; m < models; ++m) {
    // The task names are "<model>/<subtask>".
    const std::string& first =
        runs[m * static_cast<std::size_t>(kNumTasks)].plan.task;
    const std::string model = first.substr(0, first.find('/'));
    std::vector<std::string> cells = {model};
    for (int k = 0; k < kNumTasks; ++k) {
      const bench::PlanRun& run =
          runs[m * static_cast<std::size_t>(kNumTasks) +
               static_cast<std::size_t>(k)];
      const double fp32 = bench::planned_metric(run, Role::kBaseline);
      const double fp16 =
          bench::planned_metric(run, Role::kOption, "Precision", "FP16");
      const double int8 =
          bench::planned_metric(run, Role::kOption, "Precision", "INT8");
      cells.push_back(core::fmt(fp32) + "/" + core::fmt(fp32 - fp16) + "/" +
                      core::fmt(fp32 - int8));
      csv += model + "," + task_name(static_cast<TaskKind>(k)) + "," +
             core::fmt(fp32) + "," + core::fmt(fp32 - fp16) + "," +
             core::fmt(fp32 - int8) + "\n";
      reports.push_back(core::assemble_report(run.plan, run.metrics));
    }
    table.add_row(std::move(cells));
  }

  const std::string out = table.str();
  std::fputs(out.c_str(), stdout);
  bench::write_file("table5_nlp.txt", out);
  bench::write_file("table5_nlp.csv", csv);
  const std::string axes_table = core::render_axis_table(reports, "ACC");
  bench::write_file("table5_nlp_axes.txt", axes_table);
  bench::write_file("table5_nlp_axes.csv", core::axis_report_csv(reports));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table5_nlp");
  bench::banner("Table 5 — NLP data-precision noise (OPT-mini zoo)",
                "Sec. 4.2, Table 5");
  bench::BenchTrace trace(cli);

  auto zoo = opt_mini_zoo();
  if (bench::fast_mode()) zoo.resize(1);

  struct Unit {
    std::shared_ptr<TrainedLm> lm;
    std::unique_ptr<NlpChoiceTask> task;
  };
  std::shared_ptr<TrainedLm> lm;  // current model, shared by its 4 subtasks

  bench::PlanBenchDef def;
  def.units = zoo.size() * static_cast<std::size_t>(kNumTasks);
  def.make = [&](std::size_t i) {
    const auto& spec = zoo[i / static_cast<std::size_t>(kNumTasks)];
    const auto kind =
        static_cast<TaskKind>(i % static_cast<std::size_t>(kNumTasks));
    if (kind == static_cast<TaskKind>(0)) {
      std::printf("[table5] %s: training/loading...\n", spec.name.c_str());
      std::fflush(stdout);
      lm = std::make_shared<TrainedLm>(get_lm(spec.name));
    }
    auto holder = std::make_shared<Unit>();
    holder->lm = lm;
    holder->task = std::make_unique<NlpChoiceTask>(*holder->lm, kind);
    bench::PlanUnit unit;
    unit.task_spec = dist::nlp_spec(spec.name, task_name(kind)).to_json();
    unit.plan = core::plan_sweep(*holder->task, core::AxisRegistry::global());
    unit.task = holder->task.get();
    unit.owner = std::move(holder);
    return unit;
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}
