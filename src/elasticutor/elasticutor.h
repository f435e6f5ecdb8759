// Umbrella header: the public API of the Elasticutor reproduction.
//
// Typical usage:
//
//   #include "elasticutor/elasticutor.h"
//   using namespace elasticutor;
//
//   MicroOptions options;
//   options.shuffles_per_minute = 2.0;
//   auto workload = BuildMicroWorkload(options, /*seed=*/42).value();
//
//   EngineConfig config;
//   config.paradigm = Paradigm::kElastic;
//   Engine engine(workload.topology, config);
//   ELASTICUTOR_CHECK(engine.Setup().ok());
//   workload.InstallDynamics(&engine);
//   engine.Start();
//   engine.RunFor(Seconds(5));             // Warm-up.
//   engine.ResetMetricsAfterWarmup();
//   engine.RunFor(Seconds(20));            // Measure.
//   std::cout << engine.MeasuredThroughput() << " tuples/s\n";
#pragma once

#include "cluster/cluster.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/rate_meter.h"
#include "common/status.h"
#include "common/units.h"
#include "common/zipf.h"
#include "elastic/elastic_executor.h"
#include "elastic/load_balancer.h"
#include "elastic/reassign_protocol.h"
#include "engine/engine.h"
#include "engine/engine_config.h"
#include "engine/operator.h"
#include "engine/topology.h"
#include "exec/execution_backend.h"
#include "exec/native_backend.h"
#include "exec/native_runtime.h"
#include "exec/sim_backend.h"
#include "net/network.h"
#include "rc/rc_controller.h"
#include "scenario/library.h"
#include "scenario/recovery.h"
#include "scenario/scenario.h"
#include "scenario/scenario_driver.h"
#include "scheduler/assignment.h"
#include "scheduler/perf_model.h"
#include "scheduler/scheduler.h"
#include "state/migration_engine.h"
#include "state/state_backend.h"
#include "state/state_store.h"
#include "workload/keyspace.h"
#include "workload/micro.h"
#include "workload/order_book.h"
#include "workload/sse.h"
#include "workload/sse_trace.h"
