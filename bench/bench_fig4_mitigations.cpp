// Fig. 4: do data augmentation (a) and adversarial training (b) improve
// robustness against SysNoise? Expected shape vs the paper: no strategy
// helps across all five axes; adversarial training often *increases* the
// deltas (and costs clean accuracy).
//
// Each row is one plan unit: a classifier trained with the row's recipe
// (tag "f4_<strategy>", "adv" or the default, core::get_tagged_classifier)
// swept over every registered axis.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/mitigation.h"

using namespace sysnoise;

namespace {

double axis_mean(const core::AxisReport& r, const char* axis) {
  const core::AxisResult* res = r.find(axis);
  return res != nullptr ? res->mean : 0.0;
}

// One row: its label, the classifier and the recipe tag it trains with.
struct Row {
  std::string label;
  std::string model;
  std::string tag;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "fig4_mitigations");
  bench::banner("Fig. 4 — augmentations & adversarial training vs SysNoise",
                "Sec. 4.3, Fig. 4");
  bench::BenchTrace trace(cli);

  // (a) the augmentation strategies on ResNet-S, (b) clean + adversarially
  // trained members of two families (paper: ResNet-50, RegNetX).
  std::vector<Row> rows;
  const int n_strategies = bench::fast_mode() ? 2 : core::kNumAugStrategies;
  for (int s = 0; s < n_strategies; ++s) {
    const std::string name =
        core::aug_strategy_name(static_cast<core::AugStrategy>(s));
    rows.push_back({name, "ResNet-S", "f4_" + name});
  }
  for (const std::string base : {"ResNet-S", "RegNetX-S"}) {
    rows.push_back({base, base, ""});
    rows.push_back({base + "-Adv", base, "adv"});
    if (bench::fast_mode()) break;
  }

  bench::PlanBenchDef def;
  def.units = rows.size();
  def.make = [&](std::size_t i) {
    const Row& row = rows[i];
    if (row.tag.empty())
      std::printf("[fig4] baseline %s...\n", row.model.c_str());
    else if (row.tag == "adv")
      std::printf("[fig4] adversarially training %s...\n", row.model.c_str());
    else
      std::printf("[fig4] training %s with %s augmentation...\n",
                  row.model.c_str(), row.label.c_str());
    std::fflush(stdout);
    return bench::zoo_unit(dist::classifier_spec(row.model, row.tag),
                           core::AxisRegistry::global());
  };
  def.render = [&](const std::vector<bench::PlanRun>& runs) {
    core::TextTable table({"Training", "ACC", "dDecode", "dResize", "dColor",
                           "dINT8", "dCeil"});
    std::string csv = "training,acc,decode,resize,color,int8,ceil\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string& label = rows[i].label;
      const core::AxisReport r =
          core::assemble_report(runs[i].plan, runs[i].metrics);
      const core::AxisResult* prec = r.find("Precision");
      const core::OptionDelta* int8 =
          prec != nullptr ? prec->option("INT8") : nullptr;
      const core::AxisResult* ceil = r.find("Ceil Mode");
      table.add_row({label, core::fmt(r.trained),
                     core::fmt(axis_mean(r, "Decode")),
                     core::fmt(axis_mean(r, "Resize")),
                     core::fmt(axis_mean(r, "Color Mode")),
                     int8 != nullptr ? core::fmt(int8->delta) : "-",
                     ceil != nullptr ? core::fmt(ceil->mean) : "-"});
      csv += label + "," + core::fmt(r.trained) + "," +
             core::fmt(axis_mean(r, "Decode")) + "," +
             core::fmt(axis_mean(r, "Resize")) + "," +
             core::fmt(axis_mean(r, "Color Mode")) + "," +
             (int8 != nullptr ? core::fmt(int8->delta) : "") + "," +
             (ceil != nullptr ? core::fmt(ceil->mean) : "") + "\n";
    }
    std::fputs(table.str().c_str(), stdout);
    bench::write_file("fig4_mitigations.txt", table.str());
    bench::write_file("fig4_mitigations.csv", csv);
  };
  return bench::run_standard_modes(cli, trace, def);
}
