#include "runtime/server.hpp"

#include <utility>

namespace pecan::runtime {

Server::Counters& Server::counters(const std::string& name) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  std::unique_ptr<Counters>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counters>();
  return *slot;
}

std::uint64_t Server::install(const std::string& name, std::shared_ptr<Engine> engine) {
  ModelRegistry::InstallResult result = registry_.install(name, std::move(engine));
  counters(name).deploys.fetch_add(1, std::memory_order_relaxed);
  // `result.retired` goes out of scope here: if this was the last lease the
  // old engine drains its pending queue and joins its batcher now, on the
  // deployer's thread; otherwise teardown happens when the last in-flight
  // request drops its lease.
  return result.generation;
}

std::uint64_t Server::deploy(const std::string& name, std::unique_ptr<nn::Sequential> net,
                             EngineConfig config) {
  // Compile outside any lock: this is the expensive part (weight transfer,
  // CAM export, plan flattening, and — with a known input geometry — the
  // scratch-profile warm-up forward) and a throw here must leave the
  // currently serving engine untouched.
  auto engine = std::make_shared<Engine>(std::move(net), config);
  return install(name, std::move(engine));
}

std::uint64_t Server::deploy(const std::string& name, const ModelArtifact& artifact,
                             EngineConfig config) {
  std::shared_ptr<Engine> engine = Engine::from_artifact(artifact, config);
  return install(name, std::move(engine));
}

std::uint64_t Server::deploy_file(const std::string& name, const std::string& path,
                                  EngineConfig config) {
  // load_artifact throws before any engine exists, and deploy() compiles
  // before touching the registry — so every failure mode leaves the
  // currently serving generation in place.
  const ModelArtifact artifact = load_artifact(path);
  return deploy(name, artifact, std::move(config));
}

void Server::undeploy(const std::string& name) {
  std::shared_ptr<Engine> retired = registry_.erase(name);
  if (!retired) throw UnknownModelError("Server::undeploy: no model '" + name + "' is deployed");
  // Drops here — same deferred-teardown contract as a hot-swap.
}

std::future<Tensor> Server::submit(const std::string& name, Tensor sample,
                                   std::int64_t priority,
                                   std::chrono::steady_clock::time_point deadline) {
  std::shared_ptr<Engine> engine = registry_.acquire(name);
  try {
    return engine->submit(std::move(sample), priority, deadline);
  } catch (const OverloadedError&) {
    counters(name).shed.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

Tensor Server::forward_batch(const std::string& name, const Tensor& batch) {
  std::shared_ptr<Engine> engine = registry_.acquire(name);
  return engine->forward_batch(batch);
}

ModelServerStats Server::stats(const std::string& name) const {
  // One locked registry read: the generation always describes the engine
  // we snapshot, even if a hot-swap lands between here and stats().
  const ModelRegistry::Lease lease = registry_.acquire_with_generation(name);
  ModelServerStats out;
  out.generation = lease.generation;
  out.cam_precision = lease.engine->cam_precision();
  out.cam_isa = kernels::active().isa;
  out.engine = lease.engine->stats();
  const Counters& c = counters(name);
  out.deploys = c.deploys.load(std::memory_order_relaxed);
  // Server-routed sheds across every generation of this name; the live
  // engine's stats().shed only covers the current generation.
  out.shed_total = c.shed.load(std::memory_order_relaxed);
  return out;
}

void Server::shutdown() {
  std::vector<std::shared_ptr<Engine>> retired = registry_.clear();
  // Engines drain and join as each shared_ptr drops (ours may be the last).
  retired.clear();
}

}  // namespace pecan::runtime
