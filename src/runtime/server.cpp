#include "runtime/server.hpp"

#include <utility>

namespace pecan::runtime {

const Server::Slot& Server::slot(const std::string& name) const {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    throw UnknownModelError("Server: no model '" + name + "' is deployed");
  }
  return it->second;
}

std::uint64_t Server::install(const std::string& name, std::shared_ptr<Engine> engine) {
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& entry = slots_[name];
    std::swap(entry.engine, engine);  // `engine` now holds the retired one, if any
    generation = ++entry.generation;
    ++entry.deploys;
  }
  // The retired engine drops here, with the table unlocked: if this was the
  // last lease it drains its pending queue and joins its batcher now, on the
  // deployer's thread; otherwise teardown happens when the last in-flight
  // request drops its lease.
  engine.reset();
  return generation;
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
  // before touching the table — so every failure mode leaves the currently
  // serving generation in place.
  const ModelArtifact artifact = load_artifact(path);
  return deploy(name, artifact, std::move(config));
}

void Server::undeploy(const std::string& name) {
  std::shared_ptr<Engine> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      throw UnknownModelError("Server::undeploy: no model '" + name + "' is deployed");
    }
    retired = std::move(it->second.engine);
    slots_.erase(it);
  }
  // `retired` drops here — same deferred-teardown contract as a hot-swap.
}

std::future<Tensor> Server::submit(const std::string& name, Tensor sample,
                                   std::int64_t priority,
                                   std::chrono::steady_clock::time_point deadline) {
  std::shared_ptr<Engine> engine = lease(name);
  try {
    return engine->submit(std::move(sample), priority, deadline);
  } catch (const OverloadedError&) {
    // Booked to the name, whichever generation shed it; a shed that races an
    // undeploy goes with the slot it would have counted in.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = slots_.find(name);
      if (it != slots_.end()) ++it->second.shed;
    }
    throw;
  }
}

Tensor Server::forward_batch(const std::string& name, const Tensor& batch) {
  std::shared_ptr<Engine> engine = lease(name);
  return engine->forward_batch(batch);
}

std::shared_ptr<Engine> Server::lease(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot(name).engine;
}

bool Server::has_model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.count(name) != 0;
}

std::vector<std::string> Server::models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, entry] : slots_) names.push_back(name);
  return names;
}

std::uint64_t Server::generation(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  return it == slots_.end() ? 0 : it->second.generation;
}

ModelServerStats Server::stats(const std::string& name) const {
  ModelServerStats out;
  std::shared_ptr<Engine> engine;
  {
    // One critical section: the generation and counters always describe the
    // engine we snapshot, even if a hot-swap lands right after.
    std::lock_guard<std::mutex> lock(mutex_);
    const Slot& entry = slot(name);
    engine = entry.engine;
    out.generation = entry.generation;
    out.deploys = entry.deploys;
    // Server-routed sheds across every generation of this name; the live
    // engine's stats().shed only covers the current generation.
    out.shed_total = entry.shed;
  }
  out.cam_precision = engine->cam_precision();
  out.cam_isa = kernels::active().isa;
  out.engine = engine->stats();
  return out;
}

void Server::shutdown() {
  std::map<std::string, Slot> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retired.swap(slots_);
  }
  // Engines drain and join as `retired` drops each shared_ptr (ours may be
  // the last lease).
}

}  // namespace pecan::runtime
