// htims.hpp — umbrella header for the htims library.
//
// htims is an end-to-end simulation of data capture and signal processing
// for a Hadamard-transform ion mobility mass spectrometer, reproducing
// Chavarría-Miranda, Clowers, Anderson & Belov, "Simulating data processing
// for an advanced ion mobility mass spectrometer" (SC 2007).
//
// Layering (each header is independently includable):
//   common/     — buffers, RNG, fixed point, statistics, threading, tables
//   prs/        — LFSRs, m-sequences, simplex matrices, oversampled PRS
//   transform/  — FWHT, simplex deconvolution, weighted & enhanced decoders
//   instrument/ — drift cell, TOF, ESI source, funnel trap, detector,
//                 synthetic peptide libraries
//   telemetry/  — counters, histograms, span tracing, registry, JSON/CSV
//                 run reports
//   pipeline/   — frames, acquisition engine, FPGA model, CPU backend,
//                 SPSC streaming, the streaming engine (hybrid, fleet)
//   core/       — Simulator facade, peaks, metrics, experiment scaffolding
#pragma once

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/ccs.hpp"
#include "core/experiment.hpp"
#include "core/feature_finder.hpp"
#include "core/mass_calibration.hpp"
#include "core/metrics.hpp"
#include "core/peaks.hpp"
#include "core/simulator.hpp"
#include "instrument/detector.hpp"
#include "instrument/esi_source.hpp"
#include "instrument/ion.hpp"
#include "instrument/ion_trap.hpp"
#include "instrument/mobility.hpp"
#include "instrument/peptide_library.hpp"
#include "instrument/tof.hpp"
#include "msms/fragmentation.hpp"
#include "msms/msms.hpp"
#include "pipeline/acquisition.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/spsc_ring.hpp"
#include "prs/lfsr.hpp"
#include "prs/oversampled.hpp"
#include "prs/polynomials.hpp"
#include "prs/sequence.hpp"
#include "telemetry/telemetry.hpp"
#include "transform/circulant.hpp"
#include "transform/deconvolver.hpp"
#include "transform/enhanced.hpp"
#include "transform/filters.hpp"
#include "transform/fwht.hpp"
#include "transform/weighted.hpp"
