// Deterministic round-time model for the DDP trainer.
//
// Figures 3/4 plot accuracy against wall-clock time, and Fig. 5 splits a
// round into its stages. The trainer never times a round live (that would
// tie the time axis to machine load); it charges:
//
//   round = compute_round_s                       (modeled accelerator step)
//         + encode_cost/coord × coords encoded    (calibrated once/process)
//         + simulated comm time                   (channel)
//         + decode_cost/coord × coords decoded
//
// The per-coordinate codec costs are measured once per (scheme, process) on
// a fixed-size probe and then reused for every cell, so relative overheads
// (RHT slower than scalar, baseline cheapest — the Fig. 5 shape) are real
// measurements while the time axis stays reproducible within a run.
#pragma once

#include "core/codec.h"

namespace trimgrad::ddp {

struct CodecCosts {
  double encode_per_coord_s = 0;  ///< seconds per coordinate encoded
  double decode_per_coord_s = 0;  ///< seconds per coordinate decoded
};

/// Calibrated costs for a scheme; first call per scheme measures (three
/// repetitions over a 2^16-coordinate probe, best-of), later calls hit a
/// process-wide cache.
const CodecCosts& calibrated_costs(core::Scheme scheme);

}  // namespace trimgrad::ddp
