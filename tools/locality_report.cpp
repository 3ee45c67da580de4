// locality_report: run the locality observatory over one kernel and a list
// of layouts and print the full reuse-distance picture — working sets,
// cache-line utilization, the exact miss-ratio curve at every pinned
// capacity, the page/TLB-reach curve, and the SHARDS sampling error.
//
//   locality_report --kernel=bilateral --size=256
//                   --layouts=array-order,z-order,tuned --report-out=loc.json
//
// "tuned" in --layouts resolves to the tuner's deterministic quick-search
// winner for the kernel/shape. With --report-out the profiles also land in
// the run report's "locality" section (tools/sfcreport.py summarizes and
// validates it, and diffs two such reports).
#include <cstdio>
#include <string>
#include <vector>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/locality/profile.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) {
      out.push_back(csv.substr(begin, end - begin));
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.1fMB", static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof buf, "%.0fKB", static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

void print_curve(const char* label, const trace::LocalityGranularity& g) {
  std::printf("    %s:", label);
  for (const trace::LocalityMissPoint& p : g.mrc) {
    std::printf(" %s %.3f |", human_bytes(p.capacity_bytes).c_str(), p.miss_ratio);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bench_util::Options opts(argc, argv);
    locality::WorkloadConfig workload;
    workload.kernel = opts.get_string("kernel", "bilateral");
    workload.threads = opts.get_u32("threads-model", 4);
    workload.trace_items = opts.get_u32("trace-items", 64);
    workload.trace_image = opts.get_u32("trace-image", 32);
    const std::uint32_t size = opts.get_u32("size", 64);
    const core::Extents3D extents{opts.get_u32("nx", size), opts.get_u32("ny", size),
                                  opts.get_u32("nz", size)};
    locality::LocalityConfig lconfig;
    lconfig.sample_rate_log2 = opts.get_u32("sample-log2", 6);
    const std::vector<std::string> layouts =
        split_list(opts.get_string("layouts", "array-order,z-order,gmorton"));

    exec::TraceSession session(opts.get_string("trace-out", ""),
                               opts.get_string("report-out", ""), opts.get_flag("trace"));

    std::printf("== locality_report: %s at %ux%ux%u ==\n", workload.kernel.c_str(),
                extents.nx, extents.ny, extents.nz);
    std::printf("replay: %zu items, %u modeled threads  |  SHARDS rate 1/%llu\n\n",
                workload.trace_items, workload.threads,
                static_cast<unsigned long long>(1ull << lconfig.sample_rate_log2));

    for (const std::string& name : layouts) {
      std::string spec_string = name;
      if (name == "tuned") {
        const tuner::TunerResult tuned = tuner::quick_search(workload.kernel, extents);
        spec_string = "gmorton:" + tuned.best.pattern;
        std::printf("tuned -> \"%s\"\n", spec_string.c_str());
      }
      const core::LayoutSpec spec = core::parse_layout_spec(spec_string);
      core::VolumeOpts vopts;
      vopts.interleave = spec.interleave;
      core::AnyVolume volume = core::make_volume(spec.kind, extents, vopts);
      locality::fill_workload_volume(volume, workload.kernel);
      const trace::LocalityProfile p =
          locality::profile_workload(volume, spec_string, workload, lconfig);

      std::printf("layout %s: %llu accesses (%s requested)\n", name.c_str(),
                  static_cast<unsigned long long>(p.accesses),
                  human_bytes(p.bytes).c_str());
      std::printf("  line (%uB): working set %llu lines (%s), cold %llu, util %.3f\n",
                  p.line.granule_bytes, static_cast<unsigned long long>(p.line.distinct),
                  human_bytes(p.line.distinct * p.line.granule_bytes).c_str(),
                  static_cast<unsigned long long>(p.line.cold), p.line.utilization);
      print_curve("MRC", p.line);
      std::printf("  page (%uB): working set %llu pages (%s), cold %llu\n",
                  p.page.granule_bytes, static_cast<unsigned long long>(p.page.distinct),
                  human_bytes(p.page.distinct * p.page.granule_bytes).c_str(),
                  static_cast<unsigned long long>(p.page.cold));
      print_curve("TLB reach", p.page);
      if (p.sampled_available) {
        std::printf("  sampled (1/%llu): est. working set %llu lines, max |exact-sampled| "
                    "%.4f\n",
                    static_cast<unsigned long long>(1ull << p.sample_rate_log2),
                    static_cast<unsigned long long>(p.sampled.distinct),
                    locality::shards_error(p));
      }
      std::printf("\n");
      locality::publish_profile(p);
    }
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "locality_report: %s\n", ex.what());
    return 1;
  }
}
