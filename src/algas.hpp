// Umbrella header: the public ALGAS API.
//
//   #include "algas.hpp"
//
//   Dataset  ->  Graph  ->  AlgasEngine  ->  EngineReport
//
// See README.md for the five-call quickstart and examples/ for runnable
// programs. Individual module headers remain includable on their own.
#pragma once

#include "baselines/ivf.hpp"            // IVF-Flat baseline
#include "baselines/static_engine.hpp"  // CAGRA- and GANNS-style baselines
#include "core/engine.hpp"              // AlgasEngine
#include "core/mutable_index.hpp"       // streaming insert/delete/compact
#include "core/serving_engine.hpp"      // open-loop arrivals + deadlines
#include "core/sharded_engine.hpp"      // multi-device scatter-gather
#include "core/tuner.hpp"               // adaptive tuning (SIV-C)
#include "common/env.hpp"               // RuntimeOptions / ALGAS_* knobs
#include "dataset/dataset.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"               // fvecs/ivecs + dataset cache files
#include "dataset/partitioner.hpp"      // contiguous id-range sharding
#include "dataset/registry.hpp"         // named bench datasets
#include "dataset/synthetic.hpp"        // Table III stand-in generators
#include "dataset/vector_store.hpp"     // f32/f16/int8 storage codecs
#include "distance/kernels.hpp"         // batch kernels + the kernel tier
#include "graph/builder.hpp"            // NSW + CAGRA-style index builders
#include "metrics/recall.hpp"
#include "search/greedy.hpp"            // instrumented reference search
#include "simgpu/device_props.hpp"      // simulated device (Table II)
#include "simgpu/trace.hpp"             // SimTrace timeline sink
