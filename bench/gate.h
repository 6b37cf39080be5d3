// anole bench — the perf-regression gate shared by the gated benches
// (bench_engine_micro, bench_profile).
//
// A gated bench collects its printed tables, can write them as one JSON
// object per line (--json-out), and with --check compares them against a
// committed baseline file in that format: every gated ratio column may
// not fall below baseline/3, and every identity column must read "yes".
// Rows missing from the baseline (new workloads) are not gated yet.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/table.h"

namespace anole {

// A printed table, kept for --json-out and --check.
struct emitted {
    std::string title;
    text_table table;
};

// Prints a titled table (plus CSV and/or JSON when asked) and keeps it.
inline void emit(std::vector<emitted>& sink, bool csv, bool json, const std::string& title,
                 const text_table& t) {
    std::cout << "\n== " << title << " ==\n";
    t.print(std::cout);
    if (csv) {
        std::cout << "-- csv --\n";
        t.print_csv(std::cout);
    }
    if (json) {
        std::cout << "-- json --\n";
        t.print_json(std::cout, title);
    }
    std::cout.flush();
    sink.push_back(emitted{title, t});
}

// Writes the tables as one JSON object per line; false if `path` cannot
// be written.
[[nodiscard]] inline bool write_json(const std::string& path,
                                     const std::vector<emitted>& tables) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return false;
    }
    for (const auto& e : tables) e.table.print_json(out, e.title);
    return true;
}

// Parses a formatted cell ("1,234", "12.34", "8.52x") as a double.
[[nodiscard]] inline double cell_number(const std::string& s) {
    std::string clean;
    for (char c : s) {
        if (c != ',' && c != 'x') clean.push_back(c);
    }
    return std::strtod(clean.c_str(), nullptr);
}

// One gated column: every (table, row-key, column) must be at least
// baseline/3; identity cells must equal "yes".
struct gate_column {
    std::string title;     // table title
    std::string key;       // header of the row-key column
    std::string column;    // header of the gated column
    bool identity = false; // "yes"-match instead of ratio
};

// Gates `tables` against the baseline at `path`; returns the exit code
// (0 = no regression, 1 = regression or unreadable baseline).
[[nodiscard]] inline int run_check(const std::string& path,
                                   const std::vector<emitted>& tables,
                                   const std::vector<gate_column>& checks) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "check: cannot open baseline '%s'\n", path.c_str());
        return 1;
    }
    std::map<std::string, json_value> baseline;  // title -> object
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        json_value v = json_parse(line);
        std::string title = v.at("title").as_string();
        baseline.emplace(std::move(title), std::move(v));
    }
    // Current values, via the same JSON serialization.
    std::map<std::string, json_value> current;
    for (const auto& e : tables) {
        std::ostringstream os;
        e.table.print_json(os, e.title);
        current.emplace(e.title, json_parse(os.str()));
    }
    int failures = 0;
    for (const auto& c : checks) {
        auto bit = baseline.find(c.title);
        auto cit = current.find(c.title);
        if (bit == baseline.end() || cit == current.end()) {
            std::fprintf(stderr, "check: table '%s' missing (baseline: %s, current: %s)\n",
                         c.title.c_str(), bit == baseline.end() ? "no" : "yes",
                         cit == current.end() ? "no" : "yes");
            ++failures;
            continue;
        }
        // Index baseline rows by key column.
        std::map<std::string, const json_value*> base_rows;
        for (const auto& row : bit->second.at("rows").as_array()) {
            base_rows.emplace(row.at(c.key).as_string(), &row);
        }
        for (const auto& row : cit->second.at("rows").as_array()) {
            const std::string& key = row.at(c.key).as_string();
            auto b = base_rows.find(key);
            if (b == base_rows.end()) continue;  // new workload: not gated yet
            const std::string& cur_cell = row.at(c.column).as_string();
            const std::string& base_cell = b->second->at(c.column).as_string();
            if (c.identity) {
                if (cur_cell != "yes") {
                    std::fprintf(stderr, "check: %s / %s / %s = '%s' (must be 'yes')\n",
                                 c.title.c_str(), key.c_str(), c.column.c_str(),
                                 cur_cell.c_str());
                    ++failures;
                }
                continue;
            }
            const double cur = cell_number(cur_cell);
            const double base = cell_number(base_cell);
            if (base > 0 && cur < base / 3.0) {
                std::fprintf(stderr,
                             "check: hard regression: %s / %s / %s = %.3g, "
                             "baseline %.3g (floor %.3g)\n",
                             c.title.c_str(), key.c_str(), c.column.c_str(), cur,
                             base, base / 3.0);
                ++failures;
            }
        }
    }
    if (failures == 0) {
        std::printf("check: OK — all gated columns within 3x of '%s'\n", path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace anole
