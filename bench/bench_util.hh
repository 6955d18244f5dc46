/**
 * @file
 * Shared helpers for the paper-figure registrations: the Fig 12/13/14
 * grid, and fixed-width table printing, so every figure emits the
 * same kind of rows the paper's figures plot.
 *
 * The figures themselves live in the bench/ translation units as
 * ExperimentSpec + renderer registrations (api/figures.hh), all
 * served by the `flywheel_bench` CLI.  Their stdout and exported CSV
 * are the goldens: tests/e2e/figures.sh compares `--all` at short
 * run lengths with tests/golden/all.{txt,csv}.
 */

#ifndef FLYWHEEL_BENCH_BENCH_UTIL_HH
#define FLYWHEEL_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "api/figures.hh"
#include "workload/profiles.hh"

namespace flywheel::bench {

/** The Fig 12/13/14 front-end boost axis (the paper's FE0..FE100). */
inline const std::vector<double> &
feBoostAxis()
{
    static const std::vector<double> axis{0.0, 0.25, 0.5, 0.75, 1.0};
    return axis;
}

/**
 * The Fig 12/13/14 grid, shared by the three figures so they simulate
 * it once: a baseline block plus a BE+50% Flywheel block across
 * feBoostAxis(), rendered by the figure registered under @p name.
 */
inline ExperimentSpec
baselinePlusFeSpec(const std::string &name, const std::string &title)
{
    ExperimentSpec spec;
    spec.name = name;
    spec.title = title;
    spec.render = name;

    GridSpec baseline;
    baseline.kinds = {CoreKind::Baseline};
    baseline.clocks = {{0.0, 0.0}};
    spec.grids.push_back(baseline);

    GridSpec flywheel;
    flywheel.kinds = {CoreKind::Flywheel};
    flywheel.clocks.clear();
    for (double fe : feBoostAxis())
        flywheel.clocks.push_back({fe, 0.5});
    spec.grids.push_back(flywheel);
    return spec;
}

/** Print the row label column. */
inline void
printLabel(const std::string &label)
{
    std::printf("%-9s", label.c_str());
}

/** Print one numeric cell. */
inline void
printCell(double v, int width = 9, int prec = 3)
{
    std::printf("%*.*f", width, prec, v);
}

inline void
printHeader(const std::string &first,
            const std::vector<std::string> &cols, int width = 9)
{
    std::printf("%-9s", first.c_str());
    for (const auto &c : cols)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

inline void
endRow()
{
    std::printf("\n");
}

/** Geometric-mean-free arithmetic average helper (paper averages). */
class RowAverage
{
  public:
    void
    add(std::size_t col, double v)
    {
        if (sums_.size() <= col) {
            sums_.resize(col + 1, 0.0);
            counts_.resize(col + 1, 0);
        }
        sums_[col] += v;
        ++counts_[col];
    }

    void
    printRow(const std::string &label, int width = 9, int prec = 3)
    {
        printLabel(label);
        for (std::size_t c = 0; c < sums_.size(); ++c)
            printCell(counts_[c] ? sums_[c] / counts_[c] : 0.0, width,
                      prec);
        endRow();
    }

  private:
    std::vector<double> sums_;
    std::vector<int> counts_;
};

} // namespace flywheel::bench

#endif // FLYWHEEL_BENCH_BENCH_UTIL_HH
