// Table 10 (Appendix C): SysNoise on text-to-speech — spectrogram MSE
// under precision noise, STFT-operator noise, and their combination, for
// a feed-forward ("FastSpeech-mini") and a convolutional ("Tacotron-mini")
// model. Expected shape vs the paper: STFT noise > precision noise,
// combined worst.
//
// Runs on the plan -> execute -> merge stack (bench_util.h): two SweepPlans
// per model — a restricted {Precision, Stft} registry reproducing the
// classic five-column table byte-identically (its Combined IS the classic
// INT8+fast-fixed-fft cell), and the full global registry adding the
// Backend/Resample/window/hop axes — so the bench supports
// --emit-plan/--shard/--merge and the distributed --coordinate/--connect/
// --submit modes. The per-axis report lands in table10_tts_axes.{txt,csv}.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audio/eval_task.h"
#include "bench/bench_util.h"
#include "core/report.h"

using namespace sysnoise;
using namespace sysnoise::audio;

namespace {

using Role = core::PlannedConfig::Role;

// `runs` holds, per model, [restricted legacy plan, full-registry plan].
void render_and_write(const std::vector<bench::PlanRun>& runs) {
  core::TextTable table({"Method", "Clean", "FP16", "INT8", "STFT", "Combined"});
  std::string csv = "model,clean,fp16,int8,stft,combined\n";
  std::vector<core::AxisReport> reports;

  for (std::size_t m = 0; m * 2 < runs.size(); ++m) {
    const bench::PlanRun& legacy = runs[2 * m];
    const bench::PlanRun& full = runs[2 * m + 1];
    const std::string& name = legacy.plan.task;
    const double clean = bench::planned_metric(legacy, Role::kBaseline);
    const double fp16 =
        bench::planned_metric(legacy, Role::kOption, "Precision", "FP16");
    const double int8 =
        bench::planned_metric(legacy, Role::kOption, "Precision", "INT8");
    const double stft =
        bench::planned_metric(legacy, Role::kOption, "Stft", "fast-fixed-fft");
    const double comb = bench::planned_metric(legacy, Role::kCombined);
    table.add_row({name, core::fmt(clean, 6), core::fmt(fp16, 6),
                   core::fmt(int8, 6), core::fmt(stft, 6), core::fmt(comb, 6)});
    csv += name + "," + core::fmt(clean, 6) + "," + core::fmt(fp16, 6) + "," +
           core::fmt(int8, 6) + "," + core::fmt(stft, 6) + "," +
           core::fmt(comb, 6) + "\n";
    reports.push_back(core::assemble_report(full.plan, full.metrics));
  }

  const std::string out = table.str();
  std::fputs(out.c_str(), stdout);
  bench::write_file("table10_tts.txt", out);
  bench::write_file("table10_tts.csv", csv);
  const std::string axes_table = core::render_axis_table(reports, "MSE");
  bench::write_file("table10_tts_axes.txt", axes_table);
  bench::write_file("table10_tts_axes.csv", core::axis_report_csv(reports));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table10_tts");
  bench::banner("Table 10 — text-to-speech SysNoise", "Appendix C, Table 10");
  bench::BenchTrace trace(cli);

  const std::vector<std::string> model_names = tts_model_names();

  // The classic table's noise grid: precision x STFT implementation. Its
  // Combined config (INT8 + fast-fixed-fft) is exactly the legacy
  // "Combined" cell.
  core::AxisRegistry legacy_axes;
  legacy_axes.add(*core::AxisRegistry::global().find("Precision"));
  legacy_axes.add(*core::AxisRegistry::global().find("Stft"));

  struct Unit {
    std::shared_ptr<TrainedTts> tts;
    std::shared_ptr<TtsTask> task;
  };
  std::shared_ptr<Unit> current;  // shared by one model's two plans

  bench::PlanBenchDef def;
  def.units = model_names.size() * 2;
  def.make = [&](std::size_t i) {
    const std::string& name = model_names[i / 2];
    if (i % 2 == 0) {
      std::printf("[table10] %s: training/loading...\n", name.c_str());
      std::fflush(stdout);
      current = std::make_shared<Unit>();
      current->tts = std::make_shared<TrainedTts>(get_tts(name));
      current->task = std::make_shared<TtsTask>(*current->tts);
    }
    bench::PlanUnit unit;
    unit.task_spec = dist::tts_spec(name).to_json();
    unit.plan = core::plan_sweep(
        *current->task,
        i % 2 == 0 ? legacy_axes : core::AxisRegistry::global());
    unit.task = current->task.get();
    unit.owner = current;
    return unit;
  };
  def.render = render_and_write;
  return bench::run_standard_modes(cli, trace, def);
}
