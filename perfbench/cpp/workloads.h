// The benchmark's workloads. Each runs in its own process, measures for
// ctx.args.seconds, checks every output against an independent
// execution path, and fills ctx.report (end-to-end metrics when
// untraced, per-layer metrics when traced).
#pragma once

#include "harness.h"

namespace perfbench {

void RunLbfgs(Context& ctx);
void RunBeamSearch(Context& ctx);
void RunServeRnn(Context& ctx);
void RunTreeLstm(Context& ctx);

// Reports the end-to-end metrics shared by every workload: times in
// reference ms (see kCalibReferenceMs), `rps` in calls per second of the
// same clock.
void ReportEndToEnd(Context& ctx, const Samples& setup,
                    const Samples& staged, const Samples& eager, double rps);

// Measuring slice per round: long enough to hold several calls of the
// slowest workload, short enough that each round's calibration burst
// still describes the CPU speed its samples ran at.
inline constexpr double kSliceMs = 300;

}  // namespace perfbench
