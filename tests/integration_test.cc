#include <gtest/gtest.h>

#include "core/integrated_schema.h"
#include "core/metacomm.h"

namespace metacomm::core {
namespace {

/// Full-system scenarios covering the paper's update paths.
class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(SystemConfig{}); }

  void Build(SystemConfig config) {
    auto system = MetaCommSystem::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  ldap::Entry MustGet(const std::string& dn) {
    ldap::Client client = system_->NewClient();
    auto entry = client.Get(dn);
    EXPECT_TRUE(entry.ok()) << dn << ": " << entry.status();
    return entry.ok() ? *entry : ldap::Entry();
  }

  std::unique_ptr<MetaCommSystem> system_;
};

TEST_F(IntegrationTest, LdapAddProvisionsBothDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  // PBX station created with name and extension.
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Name"), "John Doe");

  // Mailbox created; its generated SubscriberId flowed back (§5.5).
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Doe");

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4567");
  EXPECT_EQ(entry.GetFirst("MpMailboxNumber"), "4567");
  EXPECT_EQ(entry.GetFirst("MpSubscriberId"),
            mailbox->GetFirst("SubscriberId"));
  EXPECT_TRUE(entry.HasObjectClass(kDefinityUserClass));
  EXPECT_TRUE(entry.HasObjectClass(kMpUserClass));
}

TEST_F(IntegrationTest, LdapModifyPropagatesToDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "roomNumber",
                           "3F-112")
                  .ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->GetFirst("Room"), "3F-112");
}

TEST_F(IntegrationTest, PhoneNumberChangeRekeysDevices) {
  // The closure chain of §4.2: telephoneNumber drives the PBX
  // extension and the voice mailbox number.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 4999")
                  .ok());

  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4567").ok());
  auto station = system_->pbx("pbx1")->GetRecord("4999");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Name"), "John Doe");

  EXPECT_FALSE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_TRUE(system_->mp("mp1")->GetRecord("4999").ok());

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4999");
  EXPECT_EQ(entry.GetFirst("MpMailboxNumber"), "4999");
}

TEST_F(IntegrationTest, DduPropagatesToDirectoryAndOtherDevice) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  // Direct device update at the PBX terminal.
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 4567 Room 9Z-900")
                  .ok());
  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("roomNumber"), "9Z-900");
  EXPECT_EQ(entry.GetFirst(kLastUpdaterAttr), "pbx1");
  // The update was reapplied to the originator (write-write
  // convergence, §4.4/§5.4).
  EXPECT_GE(system_->update_manager().stats().reapplications, 1u);
}

TEST_F(IntegrationTest, DduNameChangeRenamesDirectoryEntry) {
  // A PBX name change renames the person entry — the ModifyRDN/Modify
  // pair of §5.1 — and follows through to the messaging platform.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand(
                      "change station 4567 Name \"John Q Doe\"")
                  .ok());

  ldap::Client client = system_->NewClient();
  EXPECT_FALSE(client.Get("cn=John Doe,ou=People,o=Lucent").ok());
  ldap::Entry entry = MustGet("cn=John Q Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4567");
  EXPECT_GE(system_->ldap_filter().pair_operations(), 1u);

  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Q Doe");
}

TEST_F(IntegrationTest, MpDduFlowsToDirectory) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_->mp("mp1")
                  ->ExecuteCommand("MODIFY MAILBOX 4567 Pin=8642")
                  .ok());
  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("MpPin"), "8642");
  EXPECT_EQ(entry.GetFirst(kLastUpdaterAttr), "mp1");
}

TEST_F(IntegrationTest, LdapDeleteDeprovisionsDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=John Doe,ou=People,o=Lucent").ok());
  EXPECT_EQ(system_->pbx("pbx1")->StationCount(), 0u);
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(), 0u);
}

TEST_F(IntegrationTest, DeviceDeleteDeprovisionsEverywhere) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(
      system_->pbx("pbx1")->ExecuteCommand("remove station 4567").ok());
  // Deletes propagate symmetrically: removing the station deprovisions
  // the person in the directory and on the messaging platform, the
  // mirror image of LdapDeleteDeprovisionsDevices.
  ldap::Client client = system_->NewClient();
  EXPECT_EQ(client.Get("cn=John Doe,ou=People,o=Lucent").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(), 0u);
}

TEST_F(IntegrationTest, PartitionMoveBetweenTwoPbxs) {
  // Two switches with disjoint dial plans: moving a phone number from
  // one partition to the other becomes delete+add (§4.2).
  SystemConfig config;
  config.pbxs = {
      PbxMappingParams{.name = "pbx9", .extension_prefix = "9",
                       .phone_prefix = "+1 908 582 "},
      PbxMappingParams{.name = "pbx5", .extension_prefix = "5",
                       .phone_prefix = "+1 908 582 "},
  };
  Build(config);

  ASSERT_TRUE(system_
                  ->AddPerson("Jill Lu",
                              {{"telephoneNumber", "+1 908 582 9123"}})
                  .ok());
  EXPECT_TRUE(system_->pbx("pbx9")->GetRecord("9123").ok());
  EXPECT_EQ(system_->pbx("pbx5")->StationCount(), 0u);

  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=Jill Lu,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 5123")
                  .ok());
  EXPECT_EQ(system_->pbx("pbx9")->StationCount(), 0u);
  auto moved = system_->pbx("pbx5")->GetRecord("5123");
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->GetFirst("Name"), "Jill Lu");
}

TEST_F(IntegrationTest, FailedDeviceUpdateLogsErrorAndNotifiesAdmin) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  std::vector<std::string> admin_errors;
  system_->update_manager().set_admin_callback(
      [&admin_errors](const Status& error,
                      const lexpress::UpdateDescriptor&) {
        admin_errors.push_back(error.ToString());
      });

  system_->mp("mp1")->faults().FailNext(1);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "roomNumber",
                           "1B-1")
                  .ok());

  EXPECT_FALSE(admin_errors.empty());
  EXPECT_GE(system_->update_manager().stats().errors, 1u);
  // "The administrator can browse through the errors" — they live in
  // the directory under cn=errors (§4.4).
  auto errors = client.Search("cn=errors,o=Lucent",
                              "(objectClass=metacommError)");
  ASSERT_TRUE(errors.ok());
  // The container itself plus at least one error entry.
  EXPECT_GE(errors->size(), 2u);
}

TEST_F(IntegrationTest, ClientUpdatesWaitDuringQuiesce) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  // Drop the device and lose a direct update.
  system_->pbx("pbx1")->faults().set_drop_notifications(true);
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 4567 Room LOST-1")
                  .ok());
  system_->pbx("pbx1")->faults().set_drop_notifications(false);

  // Directory is now stale.
  ldap::Client client = system_->NewClient();
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_NE(entry->GetFirst("roomNumber"), "LOST-1");

  // Resynchronize: device wins for its fields (§4.4).
  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
  entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("roomNumber"), "LOST-1");
}

TEST_F(IntegrationTest, SagaUndoRevertsAppliedDeviceUpdates) {
  SystemConfig config;
  config.um.saga_undo = true;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  // The PBX (first filter) applies, then the MP fails: the PBX change
  // must be compensated.
  system_->mp("mp1")->faults().FailNext(1);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 4999")
                  .ok());

  // Saga compensation put the station back on 4567.
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  EXPECT_TRUE(station.ok()) << station.status();
  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4999").ok());
  EXPECT_GE(system_->update_manager().stats().undos, 1u);
}

TEST_F(IntegrationTest, InconsistentExplicitUpdateFirstMappingWins) {
  // The paper's §4.2 conflict example, end to end: a client explicitly
  // sets telephoneNumber AND DefinityExtension to inconsistent values
  // in one atomic Modify. Neither explicit value may be changed; the
  // first mapping in the closure (telephoneNumber -> Extension) feeds
  // the PBX, and DefinityExtension "retains its new value" without
  // propagating further.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  std::vector<ldap::Modification> mods;
  ldap::Modification phone;
  phone.type = ldap::Modification::Type::kReplace;
  phone.attribute = "telephoneNumber";
  phone.values = {"+1 908 582 4111"};
  mods.push_back(phone);
  ldap::Modification extension;
  extension.type = ldap::Modification::Type::kReplace;
  extension.attribute = "DefinityExtension";
  extension.values = {"4222"};  // Inconsistent with the number!
  mods.push_back(extension);
  ASSERT_TRUE(
      client.Modify("cn=John Doe,ou=People,o=Lucent", std::move(mods))
          .ok());

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("telephoneNumber"), "+1 908 582 4111");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4222");  // Retained.
  // The PBX followed the FIRST mapping: extension from the number.
  EXPECT_TRUE(system_->pbx("pbx1")->GetRecord("4111").ok());
  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4222").ok());
}

TEST_F(IntegrationTest, LdapRenamePropagatesToDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .ModifyRdn("cn=John Doe,ou=People,o=Lucent",
                             "cn=John Q Doe")
                  .ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->GetFirst("Name"), "John Q Doe");
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Q Doe");
}

TEST_F(IntegrationTest, MappingValidationDetectsBadCycles) {
  // The generated standard mappings must validate.
  EXPECT_TRUE(system_->update_manager().ValidateMappings().ok());
}

TEST_F(IntegrationTest, StatsAccounting) {
  ASSERT_TRUE(system_
                  ->AddPerson("A B", {{"telephoneNumber",
                                       "+1 908 582 1111"}})
                  .ok());
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 1111 Room R-1")
                  .ok());
  auto stats = system_->update_manager().stats();
  EXPECT_EQ(stats.ldap_updates, 1u);
  EXPECT_EQ(stats.device_updates, 1u);
  EXPECT_GE(stats.device_applies, 3u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(IntegrationTest, SingleUpdateWavePaysOneRoundTripPerDevice) {
  // A lone update is a one-unit wave: each device apply is one
  // administrative conversation (one emulated RTT), however many
  // converter commands (Get, Modify, result Get) it runs inside.
  SystemConfig config;
  config.device_command_rtt_micros = 1;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::LatencyEmulator& pbx = system_->pbx("pbx1")->latency();
  devices::LatencyEmulator& mp = system_->mp("mp1")->latency();
  const uint64_t pbx_before = pbx.round_trips();
  const uint64_t mp_before = mp.round_trips();
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "roomNumber",
                           "2D-101")
                  .ok());
  EXPECT_EQ(pbx.round_trips() - pbx_before, 1u);
  EXPECT_EQ(mp.round_trips() - mp_before, 1u);
}

}  // namespace
}  // namespace metacomm::core
