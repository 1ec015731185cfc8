// Regenerates the binary interchange goldens
// (tests/data/interchange_golden/{graph,plan,cost_table}.plbin) from the
// shared fixture builders after a DELIBERATE format-version bump. The
// fixtures are integer/literal built, so the bytes only change when the
// wire format does.
//
// model_bundle.plbin is not fixture-built: it freezes a trained model, and
// SerializeGolden pins its bytes and the digests of its forward-pass
// outputs. After a deliberate numerics change in the kernel layer, that
// test prints the new digests to record.
//
// Usage: regen_goldens <path/to/interchange_golden_dir>
#include "io/interchange.hpp"
#include "support/interchange_fixtures.hpp"

#include <cstdio>
#include <exception>
#include <string>

int main(int argc, char** argv) {
  using namespace powerlens;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <interchange_golden_dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  try {
    io::save_graph(dir + "/graph.plbin", testing::golden_graph());
    io::save_plan(dir + "/plan.plbin", testing::golden_plan(),
                  testing::golden_plan_signature());
    io::save_cost_table(dir + "/cost_table.plbin",
                        testing::golden_cost_table());
    std::printf("re-baselined %s/{graph,plan,cost_table}.plbin (format v%u)\n",
                dir.c_str(), static_cast<unsigned>(io::kFormatVersion));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "regen failed: %s\n", e.what());
    return 1;
  }
}
