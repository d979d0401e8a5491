// Umbrella header: the library's public API in one include.
//
//   #include "lft.hpp"
//
// Entry points by problem (all in namespace lft):
//   consensus, crash model ..... core::run_few_crashes_consensus (t < n/5)
//                                core::run_many_crashes_consensus (any t < n)
//   agreement primitives ....... core::run_aea, core::run_scv
//   gossiping .................. core::run_gossip
//   checkpointing .............. core::run_checkpointing
//   counting / majority ........ core::run_majority_consensus
//   Byzantine (authenticated) .. byzantine::run_ab_consensus
//   single-port model .......... singleport::run_linear_consensus,
//                                singleport::run_single_port_gossip
//   lower-bound experiments .... singleport::run_port_isolation,
//                                singleport::run_divergence_experiment
//   baselines .................. baselines::run_floodset, ...
//   fault scenarios ............ scenarios::all_scenarios, find_scenario
//   fleet sweeps ............... sim::FleetRunner, scenarios::sweep,
//                                scenarios::run_sweep
// Parameters come from the *Params::practical / ::single_port factories;
// fault plans and injectors from sim/faults.hpp (declarative FaultPlan,
// ScheduledAdversary) and sim/adversary.hpp (graph-aware / adaptive
// strategies).
#pragma once

#include "baselines/baselines.hpp"
#include "byzantine/ab_consensus.hpp"
#include "core/checkpointing.hpp"
#include "core/consensus.hpp"
#include "core/extensions.hpp"
#include "core/gossip.hpp"
#include "graph/lps.hpp"
#include "graph/overlay.hpp"
#include "graph/properties.hpp"
#include "graph/spectral.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "singleport/gossip_sp.hpp"
#include "singleport/linear_consensus.hpp"
#include "singleport/lower_bound.hpp"
#include "singleport/port.hpp"
