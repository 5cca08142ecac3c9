/**
 * @file
 * Umbrella header: the SMiTe public API.
 *
 * Typical usage:
 * @code
 *   using namespace smite;
 *   const auto mode = core::CoLocationMode::kSmt;
 *   core::Lab lab(sim::MachineConfig::ivyBridge());
 *   const auto model = core::Predictor::train(
 *       core::PredictorKind::kSmite,
 *       core::trainingCorpus(lab, workload::spec2006::evenNumbered(),
 *                            mode).samples);
 *   const auto a = core::signatureOf(
 *       lab, workload::spec2006::byName("429.mcf"), mode);
 *   const auto b = core::signatureOf(
 *       lab, workload::spec2006::byName("453.povray"), mode);
 *   double predicted = model.predictDegradation(a, b);
 * @endcode
 */

#ifndef SMITE_CORE_SMITE_H
#define SMITE_CORE_SMITE_H

#include "core/characterize.h"
#include "core/experiment.h"
#include "core/predictor.h"
#include "core/tail_latency.h"
#include "queueing/des.h"
#include "queueing/mm1.h"
#include "rulers/ruler.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "stats/correlation.h"
#include "stats/regression.h"
#include "stats/summary.h"
#include "workload/cloudsuite.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

#endif // SMITE_CORE_SMITE_H
