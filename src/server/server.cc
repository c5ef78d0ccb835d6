#include "server/server.h"

#include <utility>

#include "util/logging.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace dbdesign {

TuningServer::TuningServer(TuningServerOptions options)
    : options_(std::move(options)),
      store_(AtomStoreOptions{options_.cache_budget.atom_store_bytes,
                              options_.spill_dir}) {}

TuningServer::~TuningServer() = default;

Status TuningServer::RegisterSchema(const std::string& name,
                                    DbmsBackend& backend) {
  if (name.empty()) {
    return Status::InvalidArgument("schema name must not be empty");
  }
  MutexLock lock(mu_);
  if (schemas_.find(name) != schemas_.end()) {
    return Status::AlreadyExists("schema '" + name + "' already registered");
  }
  SchemaEntry& entry = schemas_[name];
  entry.backend = &backend;
  entry.fingerprint = SchemaFingerprint(backend);
  DBD_LOG_INFO(StrFormat("server: registered schema '%s' (fingerprint %016llx)",
                         name.c_str(),
                         static_cast<unsigned long long>(entry.fingerprint)));
  return Status::OK();
}

Status TuningServer::OpenSession(const std::string& session_id,
                                 const std::string& schema) {
  if (session_id.empty()) {
    return Status::InvalidArgument("session id must not be empty");
  }
  MutexLock lock(mu_);
  if (sessions_.find(session_id) != sessions_.end()) {
    return Status::AlreadyExists("session '" + session_id + "' already open");
  }
  auto schema_it = schemas_.find(schema);
  if (schema_it == schemas_.end()) {
    return Status::NotFound("unknown schema '" + schema + "'");
  }
  SchemaEntry& se = schema_it->second;

  auto entry = std::make_shared<SessionEntry>();
  entry->id = session_id;
  {
    MutexLock session_lock(entry->mu);
    entry->designer =
        std::make_unique<Designer>(*se.backend, options_.designer);
    entry->session = std::make_unique<DesignSession>(*entry->designer);
    entry->session->SetCacheBudget(options_.cache_budget);
    entry->atoms = std::make_unique<AtomStoreView>(&store_, se.fingerprint);
    entry->session->SetAtomSource(entry->atoms.get());
  }
  sessions_.emplace(session_id, std::move(entry));
  ++sessions_total_;
  DBD_LOG_INFO(StrFormat("server: opened session '%s' on schema '%s'",
                         session_id.c_str(), schema.c_str()));
  return Status::OK();
}

Status TuningServer::CloseSession(const std::string& session_id) {
  std::shared_ptr<SessionEntry> entry;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown session '" + session_id + "'");
    }
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  // In-flight requests hold their own reference; the state is destroyed
  // when the last one finishes. Nothing here blocks on the session lock.
  DBD_LOG_INFO("server: closed session '" + session_id + "'");
  return Status::OK();
}

std::vector<std::string> TuningServer::SessionIds() const {
  MutexLock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) ids.push_back(id);
  return ids;
}

std::vector<std::string> TuningServer::SchemaNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, entry] : schemas_) names.push_back(name);
  return names;
}

bool TuningServer::HasSession(const std::string& session_id) const {
  MutexLock lock(mu_);
  return sessions_.find(session_id) != sessions_.end();
}

std::shared_ptr<TuningServer::SessionEntry> TuningServer::FindSession(
    const std::string& id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

SessionResponse TuningServer::Execute(SessionEntry& entry,
                                      const SessionRequest& request) {
  SessionResponse response;
  response.session = entry.id;
  response.op = request.op;
  ++entry.requests;
  // Per-request tag nested inside the session tag: log lines emitted
  // by the designer stack during this request carry both.
  ScopedLogTag tag(StrFormat("session=%s req=%llu", entry.id.c_str(),
                             static_cast<unsigned long long>(entry.requests)));
  switch (request.op) {
    case SessionOp::kRecommend: {
      Result<IndexRecommendation> rec = entry.session->Recommend();
      if (rec.ok()) {
        response.recommendation = std::move(rec).value();
      } else {
        response.status = rec.status();
      }
      break;
    }
    case SessionOp::kRefine: {
      Result<IndexRecommendation> rec = entry.session->Refine(request.delta);
      if (rec.ok()) {
        response.recommendation = std::move(rec).value();
      } else {
        response.status = rec.status();
      }
      break;
    }
    case SessionOp::kPlanDeployment: {
      Result<DeploymentPlan> plan = entry.session->PlanDeployment();
      if (plan.ok()) {
        response.plan = std::move(plan).value();
      } else {
        response.status = plan.status();
      }
      break;
    }
  }
  return response;
}

std::vector<SessionResponse> TuningServer::RunBatch(
    const std::vector<SessionRequest>& requests) {
  std::vector<SessionResponse> responses(requests.size());

  // Group request indexes by session, preserving submission order both
  // across sessions (first-appearance order) and within each session.
  std::vector<std::string> order;
  std::map<std::string, std::vector<size_t>> by_session;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto [it, inserted] = by_session.try_emplace(requests[i].session);
    if (inserted) order.push_back(requests[i].session);
    it->second.push_back(i);
  }
  std::vector<std::shared_ptr<SessionEntry>> entries(order.size());
  for (size_t s = 0; s < order.size(); ++s) {
    entries[s] = FindSession(order[s]);
  }

  // Fan sessions out across the pool; each session's requests run
  // serially in order under its lock. Every response lands in its own
  // pre-sized slot, so the batch result is bit-identical to a serial
  // replay at any thread count.
  int threads = ThreadPool::Resolve(options_.num_threads);
  ThreadPool::Shared().ParallelFor(order.size(), threads, [&](size_t s) {
    const std::vector<size_t>& idxs = by_session.find(order[s])->second;
    if (entries[s] == nullptr) {
      for (size_t i : idxs) {
        responses[i].session = requests[i].session;
        responses[i].op = requests[i].op;
        responses[i].status =
            Status::NotFound("unknown session '" + requests[i].session + "'");
      }
      return;
    }
    SessionEntry& entry = *entries[s];
    MutexLock lock(entry.mu);
    ScopedLogTag tag("session=" + entry.id);
    for (size_t i : idxs) {
      responses[i] = Execute(entry, requests[i]);
    }
  });

  {
    MutexLock lock(mu_);
    requests_served_ += requests.size();
  }
  return responses;
}

Status TuningServer::WithSession(
    const std::string& session_id,
    const std::function<void(DesignSession&)>& fn) {
  std::shared_ptr<SessionEntry> found = FindSession(session_id);
  if (found == nullptr) {
    return Status::NotFound("unknown session '" + session_id + "'");
  }
  SessionEntry& entry = *found;
  {
    MutexLock lock(entry.mu);
    ScopedLogTag tag("session=" + entry.id);
    ++entry.requests;
    fn(*entry.session);
  }
  // Registry lock taken only after the session lock is released: lock
  // order is always mu_ -> entry.mu (OpenSession), never the reverse.
  MutexLock lock(mu_);
  ++requests_served_;
  return Status::OK();
}

TuningServerStats TuningServer::stats() const {
  TuningServerStats out;
  out.atoms = store_.stats();
  out.atom_hot_bytes = store_.hot_bytes();
  out.atom_peak_hot_bytes = store_.peak_hot_bytes();
  MutexLock lock(mu_);
  out.sessions_open = sessions_.size();
  out.sessions_total = sessions_total_;
  out.requests_served = requests_served_;
  return out;
}

Result<AtomStoreStats> TuningServer::SessionAtomStats(
    const std::string& session_id) const {
  std::shared_ptr<SessionEntry> found = FindSession(session_id);
  if (found == nullptr) {
    return Status::NotFound("unknown session '" + session_id + "'");
  }
  SessionEntry& entry = *found;
  MutexLock lock(entry.mu);
  return entry.atoms->session_stats();
}

Result<uint64_t> TuningServer::SessionSchemaFingerprint(
    const std::string& session_id) const {
  std::shared_ptr<SessionEntry> found = FindSession(session_id);
  if (found == nullptr) {
    return Status::NotFound("unknown session '" + session_id + "'");
  }
  SessionEntry& entry = *found;
  MutexLock lock(entry.mu);
  return entry.atoms->schema_fingerprint();
}

}  // namespace dbdesign
