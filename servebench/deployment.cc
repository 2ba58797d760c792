#include "deployment.h"

#include <utility>

#include "common/strings.h"
#include "core/integrated_schema.h"
#include "core/protocol_converters.h"
#include "ldap/text_protocol.h"
#include "lexpress/mapping.h"
#include "trace.h"

namespace servebench {

using metacomm::Status;
using metacomm::StatusOr;
namespace core = metacomm::core;
namespace ldap = metacomm::ldap;
namespace ltap = metacomm::ltap;
namespace lexpress = metacomm::lexpress;

namespace {

uint64_t DnKey(const ldap::Dn& dn) {
  if (dn.IsRoot() || dn.leaf().avas().empty()) return 0;
  return CnKey(dn.leaf().avas().front().value);
}

/// The operation a call works for: the calling thread's, else the one
/// bound to the entry it touches.
uint64_t TraceFor(const ldap::Dn& dn) {
  uint64_t trace = Tracer::Current();
  if (trace != 0) return trace;
  return Tracer::Get()->Lookup(DnKey(dn));
}

/// LdapService decorator timing every call. `split_reads` files reads
/// and writes under separate layers (the backend boundary); otherwise
/// every call is `layer`.
class TimedService : public ldap::LdapService {
 public:
  TimedService(ldap::LdapService* inner, Layer layer, bool split_reads)
      : inner_(inner), layer_(layer), split_reads_(split_reads) {}

  Status Add(const ldap::OpContext& ctx,
             const ldap::AddRequest& request) override {
    ScopedSpan span(layer_, TraceFor(request.entry.dn()));
    return inner_->Add(ctx, request);
  }
  Status Delete(const ldap::OpContext& ctx,
                const ldap::DeleteRequest& request) override {
    ScopedSpan span(layer_, TraceFor(request.dn));
    return inner_->Delete(ctx, request);
  }
  Status Modify(const ldap::OpContext& ctx,
                const ldap::ModifyRequest& request) override {
    ScopedSpan span(layer_, TraceFor(request.dn));
    return inner_->Modify(ctx, request);
  }
  Status ModifyRdn(const ldap::OpContext& ctx,
                   const ldap::ModifyRdnRequest& request) override {
    ScopedSpan span(layer_, TraceFor(request.dn));
    return inner_->ModifyRdn(ctx, request);
  }
  StatusOr<ldap::SearchResult> Search(
      const ldap::OpContext& ctx,
      const ldap::SearchRequest& request) override {
    ScopedSpan span(ReadLayer(), TraceFor(request.base));
    StatusOr<ldap::SearchResult> result = inner_->Search(ctx, request);
    if (result.ok()) {
      span.set_count(static_cast<uint32_t>(result->entries.size()));
    }
    return result;
  }
  Status Compare(const ldap::OpContext& ctx,
                 const ldap::CompareRequest& request) override {
    ScopedSpan span(ReadLayer(), TraceFor(request.dn));
    return inner_->Compare(ctx, request);
  }
  StatusOr<std::string> Bind(const ldap::BindRequest& request) override {
    return inner_->Bind(request);
  }
  void Unbind() override { inner_->Unbind(); }

 private:
  Layer ReadLayer() const {
    return split_reads_ ? Layer::kBackendRead : layer_;
  }

  ldap::LdapService* inner_;
  Layer layer_;
  bool split_reads_;
};

/// The UM's trigger action server, timed. Also keeps the first
/// notifications so PlanUpdate can be timed on them after the run.
class TimedActionServer : public ltap::TriggerActionServer {
 public:
  explicit TimedActionServer(ltap::TriggerActionServer* inner)
      : inner_(inner) {}

  Status OnUpdate(const ltap::UpdateNotification& notification) override {
    uint64_t trace = TraceFor(notification.dn);
    // Only updates of the timed part carry an operation identifier.
    if (trace != 0 && kept_.load(std::memory_order_relaxed) <
                          Deployment::kMaxNotifications) {
      metacomm::MutexLock lock(&mu_);
      if (notifications_.size() < Deployment::kMaxNotifications) {
        notifications_.push_back(notification);
        kept_.store(notifications_.size(), std::memory_order_relaxed);
      }
    }
    ScopedSpan span(Layer::kTrigger, trace);
    return inner_->OnUpdate(notification);
  }
  void OnPersistentConnection(uint64_t session_id, bool open) override {
    inner_->OnPersistentConnection(session_id, open);
  }

  std::vector<ltap::UpdateNotification> Take() {
    metacomm::MutexLock lock(&mu_);
    return std::move(notifications_);
  }

 private:
  ltap::TriggerActionServer* inner_;
  std::atomic<size_t> kept_{0};
  metacomm::Mutex mu_{metacomm::LockRank::kLeaf, "servebench.notes"};
  std::vector<ltap::UpdateNotification> notifications_ GUARDED_BY(mu_);
};

/// RepositoryFilter decorator timing Apply and ApplyBatch.
class TimedFilter : public core::RepositoryFilter {
 public:
  explicit TimedFilter(core::RepositoryFilter* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  const std::string& schema() const override { return inner_->schema(); }
  const lexpress::Mapping& to_ldap() const override {
    return inner_->to_ldap();
  }
  const lexpress::Mapping& from_ldap() const override {
    return inner_->from_ldap();
  }
  core::ApplyResult Apply(const lexpress::UpdateDescriptor& update) override {
    ScopedSpan span(Layer::kDeviceApply, TraceOf(update));
    span.set_count(1);
    return inner_->Apply(update);
  }
  std::vector<core::ApplyResult> ApplyBatch(
      const std::vector<lexpress::UpdateDescriptor>& updates) override {
    ScopedSpan span(Layer::kDeviceApply,
                    updates.empty() ? 0 : TraceOf(updates.front()));
    span.set_count(static_cast<uint32_t>(updates.size()));
    if (updates.size() > 1) {
      std::vector<uint64_t> others;
      others.reserve(updates.size() - 1);
      for (size_t i = 1; i < updates.size(); ++i) {
        others.push_back(TraceOf(updates[i]));
      }
      span.set_batch_traces(std::move(others));
    }
    return inner_->ApplyBatch(updates);
  }
  StatusOr<std::optional<lexpress::Record>> Fetch(
      const std::string& key) override {
    return inner_->Fetch(key);
  }
  StatusOr<std::vector<lexpress::Record>> DumpAll() override {
    return inner_->DumpAll();
  }
  const std::string& key_attr() const override { return inner_->key_attr(); }
  core::RepositoryHealth Health() const override { return inner_->Health(); }

 private:
  uint64_t TraceOf(const lexpress::UpdateDescriptor& update) const {
    uint64_t trace = Tracer::Current();
    if (trace != 0) return trace;
    const lexpress::Record& record =
        update.new_record.Has(key_attr()) ? update.new_record
                                          : update.old_record;
    return Tracer::Get()->Lookup(ExtKey(record.GetFirst(key_attr())));
  }

  core::RepositoryFilter* inner_;
};

core::SystemConfig ServeConfig(const DeploymentOptions& options) {
  // metacomm_serve's defaults: --um-workers=2 --batch=16
  // --wal-fsync=batch --checkpoint-interval-s=30.
  core::SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 2;
  config.um.max_batch_size = 16;
  config.durability.data_dir = options.data_dir;
  config.durability.wal_fsync = metacomm::storage::FsyncPolicy::kBatch;
  config.durability.checkpoint_interval_micros = 30'000'000;
  return config;
}

}  // namespace

/// The parts MetaCommSystem::Init owns, plus the decorators between
/// them. Members are destroyed in reverse order of declaration, the
/// same order MetaCommSystem's members go.
struct Deployment::Traced {
  std::unique_ptr<ldap::LdapServer> server;
  std::unique_ptr<TimedService> backend;
  std::unique_ptr<metacomm::storage::DurabilityManager> durability;
  std::unique_ptr<ltap::LtapGateway> gateway;
  std::unique_ptr<TimedService> session_service;
  std::unique_ptr<core::LdapFilter> ldap_filter;
  std::unique_ptr<metacomm::devices::DefinityPbx> pbx;
  std::unique_ptr<metacomm::devices::MessagingPlatform> mp;
  std::vector<std::unique_ptr<core::DeviceFilter>> filters;
  std::unique_ptr<core::UpdateManager> um;
  std::vector<std::unique_ptr<TimedFilter>> timed_filters;
  std::unique_ptr<TimedActionServer> trigger;
  std::unique_ptr<core::MonitorPublisher> monitor;
};

StatusOr<std::unique_ptr<Deployment>> Deployment::Create(
    const DeploymentOptions& options) {
  std::unique_ptr<Deployment> deployment(new Deployment());
  core::SystemConfig config = ServeConfig(options);
  if (options.traced) {
    METACOMM_RETURN_IF_ERROR(deployment->AssembleTraced(config));
  } else {
    METACOMM_ASSIGN_OR_RETURN(deployment->system_,
                              core::MetaCommSystem::Create(config));
    core::MetaCommSystem& system = *deployment->system_;
    deployment->server_ = &system.server();
    deployment->gateway_ = &system.gateway();
    deployment->um_ = &system.update_manager();
    deployment->ldap_filter_ = &system.ldap_filter();
    deployment->pbx_ = system.pbx("pbx1");
    deployment->mp_ = system.mp("mp1");
    deployment->durability_ = system.durability();
    deployment->session_service_ = &system.gateway();
  }
  METACOMM_RETURN_IF_ERROR(deployment->StartServer());
  return deployment;
}

Status Deployment::AssembleTraced(const core::SystemConfig& config) {
  traced_ = std::make_unique<Traced>();
  Traced& t = *traced_;
  ldap::ServerConfig server_config;
  server_config.allow_anonymous_writes = true;
  t.server = std::make_unique<ldap::LdapServer>(core::BuildIntegratedSchema(),
                                                server_config);
  t.backend = std::make_unique<TimedService>(
      t.server.get(), Layer::kBackendWrite, /*split_reads=*/true);
  t.gateway = std::make_unique<ltap::LtapGateway>(t.backend.get(),
                                                  config.gateway);
  METACOMM_ASSIGN_OR_RETURN(
      t.durability,
      metacomm::storage::DurabilityManager::Open(config.durability));
  METACOMM_RETURN_IF_ERROR(
      t.durability->RecoverBackend(&t.server->backend()).status());
  t.durability->AttachBackend(&t.server->backend());

  auto add_container = [&t](const std::string& dn_text,
                            const std::string& object_class,
                            const std::string& attr,
                            const std::string& value) -> Status {
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, ldap::Dn::Parse(dn_text));
    ldap::Entry entry(std::move(dn));
    entry.AddObjectClass("top");
    entry.AddObjectClass(object_class);
    entry.SetOne(attr, value);
    Status status = t.server->backend().Add(entry);
    if (status.code() == metacomm::StatusCode::kAlreadyExists) {
      return Status::Ok();
    }
    return status;
  };
  METACOMM_RETURN_IF_ERROR(
      add_container(config.suffix, "organization", "o", "Lucent"));
  METACOMM_RETURN_IF_ERROR(add_container(
      config.people_base, "organizationalUnit", "ou", "People"));
  METACOMM_RETURN_IF_ERROR(add_container(
      config.errors_base, core::kMetacommErrorClass, "cn", "errors"));

  core::LdapFilterConfig filter_config;
  filter_config.people_base = config.people_base;
  t.ldap_filter =
      std::make_unique<core::LdapFilter>(t.gateway.get(), filter_config);
  core::UpdateManagerConfig um_config = config.um;
  um_config.error_base = config.errors_base;
  t.um = std::make_unique<core::UpdateManager>(
      t.gateway.get(), t.ldap_filter.get(), um_config);
  t.um->set_durability(t.durability.get());

  const core::PbxMappingParams& pbx_params = config.pbxs.front();
  metacomm::devices::PbxConfig pbx_config;
  pbx_config.name = pbx_params.name;
  pbx_config.command_rtt_micros = config.device_command_rtt_micros;
  t.pbx = std::make_unique<metacomm::devices::DefinityPbx>(pbx_config);
  const core::MpMappingParams& mp_params = config.mps.front();
  metacomm::devices::MpConfig mp_config;
  mp_config.name = mp_params.name;
  mp_config.command_rtt_micros = config.device_command_rtt_micros;
  t.mp = std::make_unique<metacomm::devices::MessagingPlatform>(mp_config);

  struct DeviceParts {
    metacomm::devices::Device* device;
    std::unique_ptr<core::ProtocolConverter> converter;
    std::string mappings;
    std::string key;
  };
  DeviceParts parts[] = {
      {t.pbx.get(), std::make_unique<core::PbxProtocolConverter>(t.pbx.get()),
       core::GeneratePbxMappings(pbx_params), "Extension"},
      {t.mp.get(), std::make_unique<core::MpProtocolConverter>(t.mp.get()),
       core::GenerateMpMappings(mp_params), "MailboxNumber"},
  };
  core::UpdateManager* um = t.um.get();
  for (DeviceParts& part : parts) {
    METACOMM_ASSIGN_OR_RETURN(std::vector<lexpress::Mapping> mappings,
                              lexpress::CompileMappings(part.mappings));
    if (mappings.size() != 2) {
      return Status::Internal("expected a mapping pair for " +
                              part.device->name());
    }
    auto filter = std::make_unique<core::DeviceFilter>(
        part.device, std::move(part.converter), std::move(mappings[0]),
        std::move(mappings[1]), part.key);
    auto timed = std::make_unique<TimedFilter>(filter.get());
    // The decorator is not a DeviceFilter, so AddDeviceFilter leaves
    // the DDU handler to us.
    um->AddDeviceFilter(timed.get());
    filter->SetDduHandler([um](lexpress::UpdateDescriptor update) {
      ScopedSpan span(Layer::kDduSubmit, Tracer::Current());
      um->SubmitDeviceUpdate(std::move(update));
    });
    t.filters.push_back(std::move(filter));
    t.timed_filters.push_back(std::move(timed));
  }
  METACOMM_RETURN_IF_ERROR(um->ValidateMappings());

  // UpdateManager::InstallTrigger, with the decorator as the server.
  t.trigger = std::make_unique<TimedActionServer>(um);
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn people,
                            ldap::Dn::Parse(config.people_base));
  ltap::TriggerSpec spec;
  spec.name = "metacomm-um";
  spec.base = std::move(people);
  spec.ops = ltap::kTriggerAll;
  spec.timing = ltap::TriggerTiming::kAfter;
  spec.server = t.trigger.get();
  t.gateway->RegisterTrigger(std::move(spec));

  t.monitor = std::make_unique<core::MonitorPublisher>(
      t.server.get(), t.gateway.get(), um, config.suffix);
  um->Start();
  um->ReplayRecoveredIntents();
  t.durability->StartCheckpointThread(&t.server->backend());

  t.session_service = std::make_unique<TimedService>(
      t.gateway.get(), Layer::kService, /*split_reads=*/false);
  server_ = t.server.get();
  gateway_ = t.gateway.get();
  um_ = um;
  ldap_filter_ = t.ldap_filter.get();
  pbx_ = t.pbx.get();
  mp_ = t.mp.get();
  durability_ = t.durability.get();
  session_service_ = t.session_service.get();
  return Status::Ok();
}

Status Deployment::StartServer() {
  metacomm::net::TcpServerConfig config;
  config.listen_port = 0;
  config.io_threads = 2;
  config.max_connections = 4096;
  config.max_request_bytes = 1 << 20;
  config.busy_reply = ldap::BusyReply();
  config.error_reply = ldap::FramingErrorReply();
  core::UpdateManager* um = um_;
  config.admit = [um] { return um->QueueDepth() < 1024; };
  ldap::LdapService* service = session_service_;
  metacomm::net::TcpServer::HandlerFactory factory;
  if (traced_ != nullptr) {
    factory = [service] {
      auto session = std::make_shared<ldap::TextProtocolHandler>(service);
      return [session](const std::string& request) {
        uint64_t trace = Tracer::Get()->Lookup(HashKey(request));
        TraceContext context(trace);
        ScopedSpan span(Layer::kNetHandler, trace);
        return session->Handle(request);
      };
    };
  } else {
    factory = [service] {
      auto session = std::make_shared<ldap::TextProtocolHandler>(service);
      return [session](const std::string& request) {
        return session->Handle(request);
      };
    };
  }
  tcp_ = std::make_unique<metacomm::net::TcpServer>(std::move(config),
                                                    std::move(factory));
  return tcp_->Start();
}

std::vector<ltap::UpdateNotification> Deployment::TakeNotifications() {
  if (traced_ == nullptr) return {};
  return traced_->trigger->Take();
}

void Deployment::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (tcp_ != nullptr) tcp_->Stop();
  if (traced_ != nullptr) {
    // MetaCommSystem's destructor order: workers, checkpointer, then
    // the journal hook.
    traced_->um->Stop();
    traced_->durability->Stop();
    traced_->server->backend().ClearJournal();
  }
}

Deployment::~Deployment() {
  Shutdown();
  traced_.reset();
  system_.reset();
}

}  // namespace servebench
