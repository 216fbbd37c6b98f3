// Table 1: the SysNoise taxonomy — noise types, affected tasks, input
// dependence, effect level and option counts, rendered straight from the
// NoiseAxis registry so the table cannot drift from the code (registering
// a new axis adds a row here automatically). Nothing is evaluated: the
// bench has no plan units, and run_standard_modes calls the render step
// wherever a report is due.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/axis.h"
#include "core/report.h"

using namespace sysnoise;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::parse_cli(argc, argv, "table1_taxonomy");
  bench::banner("Table 1 — SysNoise taxonomy", "Sec. 3.4, Table 1");
  bench::BenchTrace trace(cli);

  bench::PlanBenchDef def;
  def.render = [](const std::vector<bench::PlanRun>&) {
    core::TextTable table({"Stage", "Type", "Task", "Input Dep.",
                           "Effect Level", "#Categories"});
    std::string csv =
        "stage,type,task,input_dependent,effect_level,categories\n";
    for (const core::NoiseAxis& axis : core::AxisRegistry::global().axes()) {
      const std::string dep = axis.input_dependent ? "yes" : "no";
      const std::string categories = std::to_string(axis.taxonomy_categories());
      table.add_row({axis.stage, axis.name, axis.tasks_label, dep,
                     axis.effect_level, categories});
      csv += axis.stage + "," + axis.name + "," + axis.tasks_label + "," + dep +
             "," + axis.effect_level + "," + categories + "\n";
    }
    std::fputs(table.str().c_str(), stdout);
    bench::write_file("table1_taxonomy.txt", table.str());
    bench::write_file("table1_taxonomy.csv", csv);
  };
  return bench::run_standard_modes(cli, trace, def);
}
