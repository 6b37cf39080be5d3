// perfbench — end-to-end and per-layer benchmark of the paper's protocols.
//
// One invocation runs one workload: a closed batch, i.e. one campaign spec
// run to completion. Every invocation executes the same sequence, whatever
// --trace says:
//
//   1. untraced batches: campaign spec -> set-up -> run_campaign into a
//      fresh ledger, repeated until the batches' run_campaign time reaches
//      --seconds (at least one batch);
//   2. set-up samples: materialize + profile_for of every topology group on
//      a fresh runner, repeated in-process when one call is short (setup_s
//      is a per-call median over these and the batches' own set-ups);
//   3. one traced pass that calls each layer's public functions itself
//      (make_family, profile, profile_cache, the four protocol drivers,
//      make_campaign_record, load_campaign_ledger, run_campaign on the
//      finished ledger), timing each call as a span.
//
// The traced pass is the correctness reference: a unit of the untraced
// batches counts as ok only if it did not throw, passed the oracle, and
// wrote exactly the ledger line the traced pass wrote for it. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones; the last
// stdout line is the JSON result. perfbench/NOTES.md defines every
// workload and metric.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/campaign.h"
#include "sim/profile_cache.h"
#include "sim/runner.h"
#include "util/json.h"

namespace fs = std::filesystem;
using namespace anole;

namespace {

using bench_clock = std::chrono::steady_clock;

double seconds_since(bench_clock::time_point t0) {
    return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

// --- workloads ----------------------------------------------------------------

struct workload {
    std::string name;
    std::vector<graph_family> families;
    std::size_t n;
    algo_kind variant;
    std::size_t seeds;  // protocol seeds 1..seeds; topology seed 1
};

const std::vector<workload>& all_workloads() {
    static const std::vector<workload> w = {
        {"irrevocable-ba1024", {graph_family::barabasi_albert}, 1024,
         algo_kind::irrevocable, 2},
        {"revocable-ba32", {graph_family::barabasi_albert}, 32, algo_kind::revocable, 2},
        {"gilbert-ba2048", {graph_family::barabasi_albert}, 2048, algo_kind::gilbert, 3},
        {"setup-sweep16k",
         {graph_family::barabasi_albert, graph_family::random_geometric,
          graph_family::torus, graph_family::erdos_renyi},
         16384, algo_kind::flood_max, 8},
    };
    return w;
}

// --seed orders the traced pass, never chooses the work: the unit set is
// fixed so that every run measures the same work, and the untraced batches
// run it in spec order. The traced pass visits topology groups and the
// units inside each group in a seed-shuffled order, which also checks that
// records do not depend on execution order.
std::uint64_t splitmix64(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

template <class T>
void shuffle_by(std::vector<T>& v, std::uint64_t& state) {
    for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[splitmix64(state) % i]);
    }
}

campaign_spec make_spec(const workload& w) {
    campaign_spec spec;
    spec.families = w.families;
    spec.sizes = {w.n};
    spec.variants = {w.variant};
    spec.seeds = w.seeds;
    spec.base_seed = 1;
    spec.topology_seed = 1;
    return spec;
}

// Set-up: materialize + profile_for of every topology group.
void setup(const campaign_spec& spec, scenario_runner& runner) {
    for (const graph_family f : spec.families) {
        for (const std::size_t n : spec.sizes) {
            (void)runner.profile_for(
                runner.materialize(family_spec{f, n, spec.topology_seed}));
        }
    }
}

// Per-call set-up samples for budget_s, at least one. Calls are summed into
// chunks of at least kChunkS so that a ~1 ms set-up is never timed once;
// each chunk gives one per-call sample. Runner construction is outside the
// timed calls.
std::vector<double> sample_setup(const campaign_spec& spec, double budget_s) {
    constexpr double kChunkS = 0.05;
    std::vector<double> samples;
    const auto t0 = bench_clock::now();
    do {
        double busy = 0;
        std::size_t calls = 0;
        while (busy < kChunkS) {
            scenario_runner runner(1, 1);
            const auto c0 = bench_clock::now();
            setup(spec, runner);
            busy += seconds_since(c0);
            ++calls;
        }
        samples.push_back(busy / static_cast<double>(calls));
    } while (seconds_since(t0) < budget_s);
    return samples;
}

// --- untraced batch -------------------------------------------------------------

struct batch {
    double wall_s = 0;   // spec -> last ledger line flushed, set-up included
    double setup_s = 0;  // this batch's own set-up
    bool no_fresh_profiles = false;  // run_campaign computed no profile
    campaign_report report;
};

batch run_untraced(campaign_spec spec, const fs::path& ledger) {
    fs::remove(ledger);
    spec.output = ledger.string();
    batch b;
    const auto t0 = bench_clock::now();
    scenario_runner runner(1, 1);
    setup(spec, runner);
    b.setup_s = seconds_since(t0);
    const std::size_t fresh = runner.fresh_profiles();
    b.report = run_campaign(spec, runner);  // closes (flushes) the ledger
    b.wall_s = seconds_since(t0);
    b.no_fresh_profiles = runner.fresh_profiles() == fresh;
    return b;
}

// --- traced pass ------------------------------------------------------------------

// Spans (name, start, end, parent) kept in memory, written out at the end.
class tracer {
public:
    struct span {
        std::string name;
        double start_s = 0;
        double end_s = 0;
        int parent = -1;
    };

    int open(std::string name, int parent) {
        spans_.push_back({std::move(name), now(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    // Closes span `id` and returns its duration.
    double close(int id) {
        span& s = spans_[static_cast<std::size_t>(id)];
        s.end_s = now();
        return s.end_s - s.start_s;
    }

    [[nodiscard]] double children_total(int parent) const {
        double sum = 0;
        for (const span& s : spans_) {
            if (s.parent == parent) sum += s.end_s - s.start_s;
        }
        return sum;
    }

    void write(const fs::path& path) const {
        std::ofstream out(path);
        for (const span& s : spans_) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "\",\"start_s\":%.9f,\"end_s\":%.9f,",
                          s.start_s, s.end_s);
            out << "{\"name\":\"" << json_escape(s.name) << buf
                << "\"parent\":" << s.parent << "}\n";
        }
        require(out.good(), "perfbench: cannot write spans to " + path.string());
    }

private:
    double now() const { return seconds_since(t0_); }
    bench_clock::time_point t0_ = bench_clock::now();
    std::vector<span> spans_;
};

// Per-layer metric names and units, in output order. Layers a workload does
// not exercise report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"graph.generate_s", "s"},
        {"graph.profile_s", "s"},
        {"graph.edges", "count"},
        {"profile_cache.store_s", "s"},
        {"profile_cache.hit_s", "s"},
        {"irrevocable.run_s", "s"},
        {"irrevocable.rounds", "count"},
        {"irrevocable.messages", "count"},
        {"irrevocable.bits", "count"},
        {"irrevocable.broadcast.rounds", "count"},
        {"irrevocable.broadcast.messages", "count"},
        {"irrevocable.walk.rounds", "count"},
        {"irrevocable.walk.messages", "count"},
        {"irrevocable.convergecast.rounds", "count"},
        {"irrevocable.convergecast.messages", "count"},
        {"irrevocable.send_density", "ratio"},
        {"irrevocable.ns_per_node_round", "ns"},
        {"revocable.run_s", "s"},
        {"revocable.rounds", "count"},
        {"revocable.messages", "count"},
        {"revocable.bits", "count"},
        {"revocable.congest_rounds", "count"},
        {"revocable.bits_per_msg", "bits/msg"},
        {"revocable.ns_per_msg", "ns"},
        {"revocable.budget_exhausted", "count"},
        {"gilbert.run_s", "s"},
        {"gilbert.rounds", "count"},
        {"gilbert.messages", "count"},
        {"gilbert.ns_per_msg", "ns"},
        {"flood_max.run_s", "s"},
        {"flood_max.rounds", "count"},
        {"flood_max.messages", "count"},
        {"flood_max.ns_per_msg", "ns"},
        {"oracle.violations", "count"},
        {"campaign.append_s", "s"},
        {"campaign.ledger_bytes", "bytes"},
        {"campaign.load_s", "s"},
        {"campaign.resume_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.coverage", "ratio"},
        {"trace.overhead_s", "s"},
    };
    return m;
}

struct traced_pass {
    // Every layer_metrics() name, plus helper sums the output skips.
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> lines;  // unit key -> ledger line
    bool cache_roundtrip = true;   // every profile read back bitwise
    bool ledger_readback = true;   // every record read back byte-for-byte
    bool resume_idle = true;       // resuming the finished ledger ran nothing
    double wall_s = 0;
};

// The parameter fill and budgets of scenario_runner::run_once, with each
// driver called directly inside a "<variant>.run" span.
run_record run_unit(const graph& g, const graph_profile& prof, const campaign_unit& u,
                    tracer& tr, int parent, std::map<std::string, double>& m) {
    const algo_config cfg = campaign_default_config(u.variant, u.n, g.num_edges());
    const std::string layer = to_string(u.variant);
    run_record rec;
    rec.seed = u.seed;
    const int id = tr.open(layer + ".run", parent);
    try {
        if (const auto* f = std::get_if<flood_cfg>(&cfg)) {
            rec.detail = run_flood_max(g, f->diameter != 0 ? f->diameter : prof.diameter,
                                       u.seed,
                                       f->budget.value_or(congest_budget::strict_log(16)));
        } else if (const auto* gb = std::get_if<gilbert_cfg>(&cfg)) {
            rec.detail = run_gilbert(g, scenario_runner::fill(gb->params, prof), u.seed,
                                     gb->budget.value_or(congest_budget::fragmenting(16)));
        } else if (const auto* ir = std::get_if<irrevocable_cfg>(&cfg)) {
            rec.detail =
                run_irrevocable(g, scenario_runner::fill(ir->params, prof), u.seed,
                                ir->budget.value_or(congest_budget::strict_log(16)));
        } else if (const auto* rv = std::get_if<revocable_cfg>(&cfg)) {
            rec.detail = run_revocable(g, scenario_runner::fill(*rv, prof), u.seed,
                                       rv->max_rounds,
                                       rv->budget.value_or(congest_budget::fragmenting(16)));
        } else {
            throw error("perfbench: no workload runs cautious broadcast");
        }
        rec.ok = true;
    } catch (const std::exception& e) {
        rec.error = e.what();
    }
    m[layer + ".run_s"] += tr.close(id);
    if (!rec.ok) return rec;

    const phase_counters t = rec.totals();
    m[layer + ".rounds"] += static_cast<double>(rec.rounds());
    m[layer + ".messages"] += static_cast<double>(t.messages);
    m[layer + ".bits"] += static_cast<double>(t.bits);
    m["oracle.violations"] += static_cast<double>(rec.oracle().violations.size());
    if (const auto* r = std::get_if<irrevocable_result>(&rec.detail)) {
        m["irrevocable.broadcast.rounds"] += static_cast<double>(r->phase_broadcast.rounds);
        m["irrevocable.broadcast.messages"] +=
            static_cast<double>(r->phase_broadcast.messages);
        m["irrevocable.walk.rounds"] += static_cast<double>(r->phase_walk.rounds);
        m["irrevocable.walk.messages"] += static_cast<double>(r->phase_walk.messages);
        m["irrevocable.convergecast.rounds"] +=
            static_cast<double>(r->phase_convergecast.rounds);
        m["irrevocable.convergecast.messages"] +=
            static_cast<double>(r->phase_convergecast.messages);
        m["irrevocable.node_rounds"] +=
            static_cast<double>(r->rounds) * static_cast<double>(g.num_nodes());
    } else if (const auto* r = std::get_if<revocable_result>(&rec.detail)) {
        m["revocable.congest_rounds"] += static_cast<double>(r->congest_rounds);
        const auto& rv = std::get<revocable_cfg>(cfg);
        if (r->stable_round >= rv.max_rounds) m["revocable.budget_exhausted"] += 1;
    }
    return rec;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

traced_pass run_traced(const campaign_spec& spec, std::uint64_t order,
                       const fs::path& dir, const fs::path& finished_ledger,
                       tracer& tr) {
    traced_pass out;
    auto& m = out.metrics;
    for (const auto& [name, unit] : layer_metrics()) m[name] = 0;

    const int root = tr.open("traced_run", -1);
    // As scenario_runner::profile_for on a jobs = 1 runner.
    thread_pool pool(1);
    profile_options po;
    po.seed = 1;
    po.pool = &pool;
    const fs::path cache_path = dir / "profiles.jsonl";
    const fs::path ledger = dir / "traced.jsonl";

    int id = tr.open("campaign.append", root);
    std::ofstream led(ledger);
    led << campaign_schema_header_line() << "\n";
    m["campaign.append_s"] += tr.close(id);

    id = tr.open("profile_cache.store", root);
    profile_cache cache(cache_path.string());
    m["profile_cache.store_s"] += tr.close(id);

    std::vector<std::pair<std::string, graph_profile>> stored;
    std::vector<std::string> appended;
    const std::vector<campaign_unit> units = expand(spec);
    const std::size_t group_size = spec.variants.size() * spec.seeds;
    std::vector<std::size_t> bases;
    for (std::size_t base = 0; base < units.size(); base += group_size) {
        bases.push_back(base);
    }
    shuffle_by(bases, order);
    for (const std::size_t base : bases) {
        std::vector<campaign_unit> group(units.begin() + static_cast<long>(base),
                                         units.begin() + static_cast<long>(base + group_size));
        const campaign_unit& head = group.front();

        id = tr.open("graph.generate", root);
        const graph g = make_family(head.family, head.n, head.topology_seed);
        m["graph.generate_s"] += tr.close(id);
        m["graph.edges"] += static_cast<double>(g.num_edges());

        id = tr.open("graph.profile", root);
        const graph_profile prof = profile(g, po);
        m["graph.profile_s"] += tr.close(id);

        // The key scheme of scenario_runner::materialize.
        const std::string key = std::string(to_string(head.family)) + "/" +
                                std::to_string(head.n) + "/s" +
                                std::to_string(head.topology_seed) + "/v" +
                                std::to_string(profile_cache_version);
        id = tr.open("profile_cache.store", root);
        cache.store(key, prof);
        m["profile_cache.store_s"] += tr.close(id);
        stored.emplace_back(key, prof);

        shuffle_by(group, order);
        for (const campaign_unit& u : group) {
            scenario_result res;
            res.kind = u.variant;
            res.topology = &g;
            res.profile = prof;
            res.runs.push_back(run_unit(g, prof, u, tr, root, m));

            id = tr.open("campaign.append", root);
            const campaign_record rec = make_campaign_record(u, res);
            std::string line = rec.to_json();
            led << line << "\n";
            led.flush();
            m["campaign.append_s"] += tr.close(id);
            require(led.good(), "perfbench: cannot write " + ledger.string());
            out.lines.emplace(u.key(), line);
            appended.push_back(std::move(line));
        }
    }
    led.close();
    m["campaign.ledger_bytes"] = static_cast<double>(fs::file_size(ledger));

    id = tr.open("profile_cache.hit", root);
    const profile_cache reread(cache_path.string());
    for (const auto& [key, prof] : stored) {
        const std::optional<graph_profile> hit = reread.lookup(key);
        out.cache_roundtrip = out.cache_roundtrip && hit.has_value() &&
                              hit->to_json() == prof.to_json();
    }
    m["profile_cache.hit_s"] += tr.close(id);

    id = tr.open("campaign.load", root);
    const std::vector<campaign_record> loaded = load_campaign_ledger(ledger.string());
    m["campaign.load_s"] += tr.close(id);
    out.ledger_readback = loaded.size() == appended.size();
    for (std::size_t i = 0; out.ledger_readback && i < loaded.size(); ++i) {
        out.ledger_readback = loaded[i].to_json() == appended[i];
    }

    id = tr.open("campaign.resume", root);
    {
        campaign_spec resume = spec;
        resume.output = finished_ledger.string();
        scenario_runner runner(1, 1);
        const campaign_report rep = run_campaign(resume, runner);
        out.resume_idle = rep.executed == 0 && rep.skipped == units.size();
    }
    m["campaign.resume_s"] += tr.close(id);

    out.wall_s = tr.close(root);

    m["irrevocable.send_density"] =
        ratio(m["irrevocable.messages"], m["irrevocable.node_rounds"]);
    m["irrevocable.ns_per_node_round"] =
        ratio(m["irrevocable.run_s"] * 1e9, m["irrevocable.node_rounds"]);
    m["revocable.bits_per_msg"] = ratio(m["revocable.bits"], m["revocable.messages"]);
    for (const char* layer : {"revocable", "gilbert", "flood_max"}) {
        const std::string p = layer;
        m[p + ".ns_per_msg"] = ratio(m[p + ".run_s"] * 1e9, m[p + ".messages"]);
    }
    m["trace.wall_s"] = out.wall_s;
    m["trace.coverage"] = ratio(tr.children_total(root), out.wall_s);
    return out;
}

// --- output ----------------------------------------------------------------------

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t k = v.size() / 2;
    return v.size() % 2 == 1 ? v[k] : (v[k - 1] + v[k]) / 2;
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
        }
    }
    throw error("perfbench: no VmHWM in /proc/self/status");
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1;
    bool trace = false;
    std::string git_rev = "unknown";
    std::string source_digest = "unknown";
    fs::path tmp_root;
    std::string keep_spans;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                 --tmp-root DIR [--keep-spans FILE]\n"
                 "                 [--git-rev REV] [--source-digest HEX]\n"
                 "workloads:";
    for (const workload& w : all_workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") o.workload = v;
            else if (a == "--seed") o.seed = std::stoull(v);
            else if (a == "--seconds") o.seconds = std::stod(v);
            else if (a == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                o.trace = v == "1";
            }
            else if (a == "--tmp-root") o.tmp_root = v;
            else if (a == "--keep-spans") o.keep_spans = v;
            else if (a == "--git-rev") o.git_rev = v;
            else if (a == "--source-digest") o.source_digest = v;
            else usage("unknown flag " + a);
        } catch (const std::logic_error&) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.tmp_root.empty()) usage("--tmp-root is required");
    return o;
}

// Removes the run's scratch directory on every exit path.
struct scratch_dir {
    fs::path path;
    explicit scratch_dir(fs::path p) : path(std::move(p)) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~scratch_dir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    scratch_dir(const scratch_dir&) = delete;
    scratch_dir& operator=(const scratch_dir&) = delete;
};

int run(const options& o) {
    const auto wit = std::find_if(all_workloads().begin(), all_workloads().end(),
                                  [&](const workload& w) { return w.name == o.workload; });
    if (wit == all_workloads().end()) usage("unknown workload '" + o.workload + "'");

    std::cout << "{\"env\":{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
              << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
              << "\",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
              << "\",\"git_rev\":\"" << json_escape(o.git_rev)
              << "\",\"source_digest\":\"" << json_escape(o.source_digest)
              << "\",\"nproc\":" << std::thread::hardware_concurrency()
              << ",\"jobs\":1,\"node_jobs\":1}}" << std::endl;

    const scratch_dir dir(o.tmp_root / ("run-" + std::to_string(::getpid())));
    const campaign_spec spec = make_spec(*wit);

    std::vector<batch> batches;
    double run_s = 0;  // run_campaign time, the rates' denominator
    do {
        batches.push_back(run_untraced(spec, dir.path / "campaign.jsonl"));
        run_s += batches.back().wall_s - batches.back().setup_s;
    } while (run_s < o.seconds);

    // Each batch gives one set-up sample. A set-up shorter than kSetupBudgetS
    // is also sampled on its own for that long; a longer one only until there
    // are kMinSetupSamples.
    constexpr double kSetupBudgetS = 1.0;
    constexpr std::size_t kMinSetupSamples = 3;
    std::vector<double> setup_samples;
    for (const batch& b : batches) setup_samples.push_back(b.setup_s);
    const auto add = [&](double budget_s) {
        for (const double s : sample_setup(spec, budget_s)) setup_samples.push_back(s);
    };
    if (median(setup_samples) < kSetupBudgetS) add(kSetupBudgetS);
    while (setup_samples.size() < kMinSetupSamples) add(0);

    tracer tr;
    const traced_pass tp = run_traced(spec, o.seed, dir.path, dir.path / "campaign.jsonl", tr);
    tr.write(o.keep_spans.empty() ? dir.path / "spans.jsonl" : fs::path(o.keep_spans));

    std::size_t attempted = 0, ok = 0, elected = 0;
    bool no_fresh = true;
    double rounds = 0, messages = 0;
    std::vector<double> walls;
    for (const batch& b : batches) {
        no_fresh = no_fresh && b.no_fresh_profiles;
        walls.push_back(b.wall_s);
        for (const campaign_record& r : b.report.records) {
            ++attempted;
            const auto it = tp.lines.find(r.unit.key());
            const bool same = it != tp.lines.end() && it->second == r.to_json();
            if (r.ok && r.error.empty() && r.oracle_ok && same) ++ok;
            if (r.leaders == 1) ++elected;
            rounds += static_cast<double>(r.rounds);
            messages += static_cast<double>(r.messages);
        }
    }
    const std::size_t expected_units = expand(spec).size() * batches.size();
    const bool correct = attempted == expected_units && ok == attempted && no_fresh &&
                         tp.cache_roundtrip && tp.ledger_readback && tp.resume_idle;
    if (!no_fresh) std::cerr << "perfbench: run_campaign computed a profile after set-up\n";
    if (!tp.cache_roundtrip) std::cerr << "perfbench: profile cache read-back differs\n";
    if (!tp.ledger_readback) std::cerr << "perfbench: ledger read-back differs\n";
    if (!tp.resume_idle) std::cerr << "perfbench: resuming the finished ledger ran units\n";
    if (ok != attempted) {
        std::cerr << "perfbench: " << attempted - ok << " of " << attempted
                  << " units failed, failed the oracle or differ from the traced pass\n";
    }

    const double wall_s = median(walls);
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    if (o.trace) {
        std::map<std::string, double> m = tp.metrics;
        m["trace.overhead_s"] = tp.wall_s - wall_s;
        for (const auto& [name, unit] : layer_metrics()) {
            metrics.push_back({name, {m.at(name), unit}});
        }
    } else {
        const double n = static_cast<double>(attempted);
        metrics = {
            {"wall_s", {wall_s, "s"}},
            {"setup_s", {median(setup_samples), "s"}},
            {"rounds_per_s", {ratio(rounds, run_s), "rounds/s"}},
            {"msgs_per_s", {ratio(messages, run_s), "msgs/s"}},
            {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
            {"ok_frac", {ratio(static_cast<double>(ok), n), "ratio"}},
            {"elected_frac", {ratio(static_cast<double>(elected), n), "ratio"}},
        };
    }
    std::cerr << "perfbench: " << o.workload << ": " << setup_samples.size()
              << " set-up samples (median " << number(median(setup_samples))
              << " s), untraced batches";
    for (const double w : walls) std::cerr << " " << number(w);
    std::cerr << " s, traced pass " << number(tp.wall_s) << " s\n";

    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << attempted - ok
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& [name, vu] = metrics[i];
        std::cout << (i ? "," : "") << "\"" << name << "\":{\"value\":"
                  << number(vu.first) << ",\"unit\":\"" << vu.second << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::cerr << "perfbench: refusing to measure an unoptimized build ("
              << PERFBENCH_BUILD_TYPE << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
#else
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
#endif
}
