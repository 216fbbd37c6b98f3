// Table 6: does test-time adaptation (TENT) help against SysNoise?
// Expected shape vs the paper: TENT *hurts* on almost every model/noise
// pair — deployment noise is a far smaller shift than the corruptions
// TENT was designed for, so entropy minimization mostly destroys accuracy.
//
// Each model is two plan units over a restricted registry (Decode /
// Resize / Color Mode), so the option vectors are the same ones every
// other bench sweeps: the plain classifier, and core::TentTask, which
// adapts a fresh copy per config and is seeded with the plain trained
// accuracy.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sysnoise;

namespace {

double color_delta(const core::AxisReport& r) {
  const core::AxisResult* color = r.find("Color Mode");
  const core::OptionDelta* nv12 =
      color != nullptr
          ? color->option(color_mode_name(ColorMode::kNv12RoundTrip))
          : nullptr;
  return nv12 != nullptr ? nv12->delta : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table6_tent");
  bench::banner("Table 6 — TENT test-time adaptation vs SysNoise",
                "Sec. 4.3, Table 6");
  bench::BenchTrace trace(cli);

  // Light members of four families (the paper's Table 6 spans the same
  // families at ImageNet scale; the TENT sweep re-adapts a fresh model per
  // noise configuration, so heavyweight rows are disproportionately slow).
  std::vector<std::string> names = {"MCUNet", "ResNet-XS", "ViT-T", "Swin-T"};
  if (bench::fast_mode()) names.resize(2);

  // Table 6's grid: the pre-processing axes the paper pairs TENT against.
  core::AxisRegistry grid;
  grid.add(*core::AxisRegistry::global().find("Decode"));
  grid.add(*core::AxisRegistry::global().find("Resize"));
  grid.add(*core::AxisRegistry::global().find("Color Mode"));

  bench::PlanBenchDef def;
  def.units = 2 * names.size();
  def.make = [&](std::size_t i) {
    const std::string& name = names[i / 2];
    const bool tent = i % 2 == 1;
    std::printf("[table6] %s (%s TENT sweep)...\n", name.c_str(),
                tent ? "w/" : "w/o");
    std::fflush(stdout);
    return bench::zoo_unit(
        tent ? dist::tent_spec(name) : dist::classifier_spec(name), grid);
  };
  def.render = [&](const std::vector<bench::PlanRun>& runs) {
    core::TextTable table({"Architecture", "Trained ACC", "Decode", "Resize",
                           "Color Mode"});
    std::string csv =
        "model,tent,decode_mean,decode_max,resize_mean,resize_max,color\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string& name = names[i / 2];
      const bool tent = i % 2 == 1;
      const core::AxisReport r =
          core::assemble_report(runs[i].plan, runs[i].metrics);
      const core::AxisResult* decode = r.find("Decode");
      const core::AxisResult* resize = r.find("Resize");
      const double color = color_delta(r);
      table.add_row({name + (tent ? " (w/ TENT)" : " (w/o TENT)"),
                     core::fmt(r.trained),
                     core::fmt_mm(decode->mean, decode->max),
                     core::fmt_mm(resize->mean, resize->max), core::fmt(color)});
      csv += name + "," + (tent ? "1" : "0") + "," + core::fmt(decode->mean) +
             "," + core::fmt(decode->max) + "," + core::fmt(resize->mean) +
             "," + core::fmt(resize->max) + "," + core::fmt(color) + "\n";
    }
    std::fputs(table.str().c_str(), stdout);
    bench::write_file("table6_tent.txt", table.str());
    bench::write_file("table6_tent.csv", csv);
  };
  return bench::run_standard_modes(cli, trace, def);
}
