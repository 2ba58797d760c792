#ifndef SERVEBENCH_DEPLOYMENT_H_
#define SERVEBENCH_DEPLOYMENT_H_

// The deployment metacomm_serve runs with its default flags, assembled
// in-process: MetaCommSystem with the threaded Update Manager (2
// workers, batch 16), a durable data dir with WAL fsync `batch`, and
// the epoll TcpServer (2 I/O threads, one TextProtocolHandler session
// per connection, UM-queue admission control).
//
// The traced variant builds the same parts from their public
// constructors, in the order MetaCommSystem::Init uses, and puts a
// timing decorator at each module boundary (see trace.h).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/metacomm.h"
#include "net/tcp_server.h"

namespace servebench {

struct DeploymentOptions {
  std::string data_dir;
  bool traced = false;
};

class Deployment {
 public:
  static metacomm::StatusOr<std::unique_ptr<Deployment>> Create(
      const DeploymentOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  uint16_t port() const { return tcp_->port(); }
  metacomm::net::TcpServer::Stats net_stats() const { return tcp_->stats(); }

  /// The LTAP gateway (what wire sessions talk to).
  metacomm::ltap::LtapGateway& gateway() { return *gateway_; }
  /// The raw directory server: the lock-free read path, outside every
  /// traced boundary.
  metacomm::ldap::LdapServer& server() { return *server_; }
  metacomm::core::UpdateManager& um() { return *um_; }
  metacomm::core::LdapFilter& ldap_filter() { return *ldap_filter_; }
  metacomm::devices::DefinityPbx& pbx() { return *pbx_; }
  metacomm::devices::MessagingPlatform& mp() { return *mp_; }
  metacomm::storage::DurabilityManager* durability() { return durability_; }

  /// Trigger notifications seen by the traced decorator (at most
  /// `kMaxNotifications`), for timing PlanUpdate after the run.
  std::vector<metacomm::ltap::UpdateNotification> TakeNotifications();
  static constexpr size_t kMaxNotifications = 4000;

  /// Stops the wire server, then the Update Manager and durability.
  void Shutdown();

 private:
  struct Traced;
  Deployment() = default;
  metacomm::Status AssembleTraced(const metacomm::core::SystemConfig& config);
  metacomm::Status StartServer();

  std::unique_ptr<metacomm::core::MetaCommSystem> system_;
  std::unique_ptr<Traced> traced_;
  std::unique_ptr<metacomm::net::TcpServer> tcp_;

  metacomm::ldap::LdapServer* server_ = nullptr;
  metacomm::ltap::LtapGateway* gateway_ = nullptr;
  metacomm::core::UpdateManager* um_ = nullptr;
  metacomm::core::LdapFilter* ldap_filter_ = nullptr;
  metacomm::devices::DefinityPbx* pbx_ = nullptr;
  metacomm::devices::MessagingPlatform* mp_ = nullptr;
  metacomm::storage::DurabilityManager* durability_ = nullptr;
  /// Service each wire session's TextProtocolHandler runs against.
  metacomm::ldap::LdapService* session_service_ = nullptr;
  bool shut_down_ = false;
};

}  // namespace servebench

#endif  // SERVEBENCH_DEPLOYMENT_H_
