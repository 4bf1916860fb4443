// Tests for the UDS-lite diagnostic stack: protocol codec round trips,
// DiagServer service dispatch / session handling / NRC paths, DiagTester
// transaction supervision, and the HealthMonitorMaster's silent-node
// detection against real remote validator nodes.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bus/can.hpp"
#include "diag/health_master.hpp"
#include "diag/protocol.hpp"
#include "diag/server.hpp"
#include "diag/tester.hpp"
#include "fmf/dtc.hpp"
#include "rte/signal_bus.hpp"
#include "sim/engine.hpp"
#include "util/trace.hpp"
#include "validator/controldesk.hpp"
#include "validator/remote_node.hpp"

namespace easis::diag {
namespace {

using sim::Duration;
using sim::SimTime;

// --- codec -------------------------------------------------------------------

TEST(DiagProtocol, RequestRoundTrip) {
  Request request;
  request.sid = kSidReadDataByIdentifier;
  put_u16(request.data, kDidWatchdogCycles);
  const auto decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sid, kSidReadDataByIdentifier);
  EXPECT_EQ(decoded->data, request.data);
  EXPECT_FALSE(decode_request({}).has_value());
}

TEST(DiagProtocol, PositiveResponseRoundTrip) {
  Response response;
  response.sid = kSidTesterPresent;
  response.data = {0x00};
  const auto wire = encode_response(response);
  EXPECT_EQ(wire[0], kSidTesterPresent + kPositiveResponseOffset);
  const auto decoded = decode_response(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->positive);
  EXPECT_EQ(decoded->sid, kSidTesterPresent);
  EXPECT_EQ(decoded->data, response.data);
}

TEST(DiagProtocol, NegativeResponseRoundTrip) {
  Response response;
  response.sid = kSidEcuReset;
  response.positive = false;
  response.nrc = Nrc::kConditionsNotCorrect;
  const auto wire = encode_response(response);
  ASSERT_EQ(wire.size(), 3u);
  EXPECT_EQ(wire[0], kSidNegativeResponse);
  const auto decoded = decode_response(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->positive);
  EXPECT_EQ(decoded->sid, kSidEcuReset);
  EXPECT_EQ(decoded->nrc, Nrc::kConditionsNotCorrect);
}

TEST(DiagProtocol, ResponseDecodingRejectsNonResponseBytes) {
  // A request SID (< 0x40) is not a valid response first byte.
  EXPECT_FALSE(decode_response({kSidTesterPresent}).has_value());
  // Truncated negative response.
  EXPECT_FALSE(decode_response({kSidNegativeResponse, kSidEcuReset})
                   .has_value());
  EXPECT_FALSE(decode_response({}).has_value());
}

TEST(DiagProtocol, DtcReadoutRoundTrip) {
  std::vector<std::uint8_t> data = {kReportDtcs, 2, 1};
  DtcRecord first;
  first.application = 7;
  first.type = wdg::ErrorType::kProgramFlow;
  first.active = true;
  first.has_freeze_frame = true;
  first.occurrences = 3;
  first.last_seen_ms = 1234;
  DtcRecord second;
  second.application = 9;
  second.type = wdg::ErrorType::kDeadline;
  second.occurrences = 1;
  encode_dtc_record(data, first);
  encode_dtc_record(data, second);

  const auto readout = decode_dtc_readout(data);
  ASSERT_TRUE(readout.has_value());
  EXPECT_EQ(readout->total, 2);
  EXPECT_EQ(readout->active, 1);
  ASSERT_EQ(readout->records.size(), 2u);
  EXPECT_EQ(readout->records[0].application, 7);
  EXPECT_EQ(readout->records[0].type, wdg::ErrorType::kProgramFlow);
  EXPECT_TRUE(readout->records[0].active);
  EXPECT_TRUE(readout->records[0].has_freeze_frame);
  EXPECT_EQ(readout->records[0].occurrences, 3);
  EXPECT_EQ(readout->records[0].last_seen_ms, 1234u);
  EXPECT_EQ(readout->records[1].application, 9);
  EXPECT_FALSE(readout->records[1].active);
  EXPECT_FALSE(readout->records[1].has_freeze_frame);

  // Truncated trailing record and a count/record mismatch must both fail.
  auto truncated = data;
  truncated.pop_back();
  EXPECT_FALSE(decode_dtc_readout(truncated).has_value());
  data[1] = 3;
  EXPECT_FALSE(decode_dtc_readout(data).has_value());
}

TEST(DiagProtocol, DtcCountPayloadTakesNoRecords) {
  const auto readout = decode_dtc_readout({kReportDtcCount, 4, 2});
  ASSERT_TRUE(readout.has_value());
  EXPECT_EQ(readout->total, 4);
  EXPECT_EQ(readout->active, 2);
  EXPECT_TRUE(readout->records.empty());
  EXPECT_FALSE(decode_dtc_readout({kReportDtcCount, 4, 2, 0}).has_value());
}

TEST(DiagProtocol, FreezeFrameRoundTripViaWireLayout) {
  std::vector<std::uint8_t> data = {kReportFreezeFrame};
  put_u16(data, 7);
  data.push_back(static_cast<std::uint8_t>(wdg::ErrorType::kAliveness));
  put_u32(data, 1500);
  data.push_back(2);
  const std::string name = "vehicle.speed_kmh";
  data.push_back(static_cast<std::uint8_t>(name.size()));
  data.insert(data.end(), name.begin(), name.end());
  put_f32(data, 87.5);
  const std::string other = "driver.demand";
  data.push_back(static_cast<std::uint8_t>(other.size()));
  data.insert(data.end(), other.begin(), other.end());
  put_f32(data, 0.25);

  const auto frame = decode_freeze_frame(data);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->application, 7);
  EXPECT_EQ(frame->type, wdg::ErrorType::kAliveness);
  EXPECT_EQ(frame->captured_ms, 1500u);
  ASSERT_EQ(frame->signals.size(), 2u);
  EXPECT_EQ(frame->signals[0].first, "vehicle.speed_kmh");
  EXPECT_DOUBLE_EQ(frame->signals[0].second, 87.5);
  EXPECT_EQ(frame->signals[1].first, "driver.demand");
  EXPECT_FLOAT_EQ(static_cast<float>(frame->signals[1].second), 0.25f);

  auto truncated = data;
  truncated.pop_back();
  EXPECT_FALSE(decode_freeze_frame(truncated).has_value());
}

// --- server + tester ---------------------------------------------------------

/// One server with a real DTC store and a tester on a shared CAN.
struct DiagWorld {
  sim::Engine engine;
  bus::CanBus can{engine};
  rte::SignalBus signals;
  fmf::DtcStore dtcs{signals, {"vehicle.speed_kmh"}, 8};
  int resets = 0;
  bool offline = false;
  DiagServer server;
  DiagTester tester;

  DiagWorld()
      : server(engine, can,
               DiagBackend{.dtcs = &dtcs,
                           .fmf = nullptr,
                           .watchdog = nullptr,
                           .ecu_reset = [this] { ++resets; },
                           .offline = [this] { return offline; },
                           .heartbeats_sent = {},
                           .policy_hash = {},
                           .policy_version = {},
                           .environment = nullptr,
                           .process = nullptr,
                           .nvm = nullptr}),
        tester(engine, can) {}

  wdg::ErrorReport report(std::uint32_t app, wdg::ErrorType type,
                          SimTime at) {
    wdg::ErrorReport r;
    r.application = ApplicationId(app);
    r.type = type;
    r.time = at;
    return r;
  }
};

TEST(DiagServer, ReadsDtcCountAndRecords) {
  DiagWorld world;
  world.signals.publish("vehicle.speed_kmh", 55.0, SimTime(100));
  world.dtcs.record(
      world.report(3, wdg::ErrorType::kAliveness, SimTime(2'000)));
  world.dtcs.record(
      world.report(3, wdg::ErrorType::kAliveness, SimTime(5'000)));

  std::optional<Response> count_response;
  std::optional<Response> list_response;
  world.tester.read_dtc_count(
      [&](const std::optional<Response>& r) { count_response = r; });
  world.tester.read_dtcs(
      [&](const std::optional<Response>& r) { list_response = r; });
  world.engine.run_until(SimTime(100'000));

  ASSERT_TRUE(count_response.has_value() && count_response->positive);
  const auto count = decode_dtc_readout(count_response->data);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(count->total, 1);
  EXPECT_EQ(count->active, 1);

  ASSERT_TRUE(list_response.has_value() && list_response->positive);
  const auto list = decode_dtc_readout(list_response->data);
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->records.size(), 1u);
  EXPECT_EQ(list->records[0].application, 3);
  EXPECT_EQ(list->records[0].type, wdg::ErrorType::kAliveness);
  EXPECT_EQ(list->records[0].occurrences, 2);
  EXPECT_TRUE(list->records[0].active);
  EXPECT_TRUE(list->records[0].has_freeze_frame);
  EXPECT_EQ(list->records[0].last_seen_ms, 5u);
}

TEST(DiagServer, ServesFreezeFrameForStoredDtc) {
  DiagWorld world;
  world.signals.publish("vehicle.speed_kmh", 87.5, SimTime(100));
  world.dtcs.record(
      world.report(3, wdg::ErrorType::kAliveness, SimTime(2'000)));

  std::optional<Response> response;
  world.tester.read_freeze_frame(
      3, wdg::ErrorType::kAliveness,
      [&](const std::optional<Response>& r) { response = r; });
  // An absent DTC must answer requestOutOfRange, not an empty frame.
  std::optional<Response> missing;
  world.tester.read_freeze_frame(
      9, wdg::ErrorType::kDeadline,
      [&](const std::optional<Response>& r) { missing = r; });
  world.engine.run_until(SimTime(100'000));

  ASSERT_TRUE(response.has_value() && response->positive);
  const auto frame = decode_freeze_frame(response->data);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->application, 3);
  EXPECT_EQ(frame->captured_ms, 2u);
  ASSERT_EQ(frame->signals.size(), 1u);
  EXPECT_EQ(frame->signals[0].first, "vehicle.speed_kmh");
  EXPECT_DOUBLE_EQ(frame->signals[0].second, 87.5);

  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->positive);
  EXPECT_EQ(missing->nrc, Nrc::kRequestOutOfRange);
}

TEST(DiagServer, PrivilegedServicesRequireSession) {
  DiagWorld world;
  world.dtcs.record(
      world.report(3, wdg::ErrorType::kAliveness, SimTime(1'000)));

  std::optional<Response> clear_refused;
  std::optional<Response> reset_refused;
  world.tester.clear_dtcs(
      [&](const std::optional<Response>& r) { clear_refused = r; });
  world.tester.ecu_reset(
      [&](const std::optional<Response>& r) { reset_refused = r; });
  world.engine.run_until(SimTime(50'000));

  ASSERT_TRUE(clear_refused.has_value());
  EXPECT_FALSE(clear_refused->positive);
  EXPECT_EQ(clear_refused->nrc, Nrc::kConditionsNotCorrect);
  ASSERT_TRUE(reset_refused.has_value());
  EXPECT_FALSE(reset_refused->positive);
  EXPECT_EQ(world.dtcs.count(), 1u);
  EXPECT_EQ(world.resets, 0);

  // Open a session; both services must now succeed.
  std::optional<Response> cleared;
  world.tester.tester_present([](const std::optional<Response>&) {});
  world.tester.clear_dtcs(
      [&](const std::optional<Response>& r) { cleared = r; });
  std::optional<Response> reset_accepted;
  world.tester.ecu_reset(
      [&](const std::optional<Response>& r) { reset_accepted = r; });
  world.engine.run_until(SimTime(200'000));

  ASSERT_TRUE(cleared.has_value() && cleared->positive);
  EXPECT_EQ(world.dtcs.count(), 0u);
  ASSERT_TRUE(reset_accepted.has_value() && reset_accepted->positive);
  // The positive response precedes the actual reset (reset_delay).
  EXPECT_EQ(world.resets, 1);
}

TEST(DiagServer, SessionExpiresAfterS3Timeout) {
  DiagWorld world;
  world.tester.tester_present([](const std::optional<Response>&) {});
  world.engine.run_until(SimTime(10'000));
  EXPECT_TRUE(world.server.session_active());
  // No further request: the 500 ms S3 timer must expire the session.
  world.engine.run_until(SimTime(600'000));
  EXPECT_FALSE(world.server.session_active());
  EXPECT_EQ(world.server.sessions_expired(), 1u);
}

TEST(DiagServer, UnknownServiceAndUnknownDidAreFlagged) {
  DiagWorld world;
  std::optional<Response> unknown_sid;
  world.tester.send(Request{0xBB, {}},
                    [&](const std::optional<Response>& r) { unknown_sid = r; });
  std::optional<Response> unknown_did;
  world.tester.read_data(
      0x7777, [&](const std::optional<Response>& r) { unknown_did = r; });
  world.engine.run_until(SimTime(100'000));

  ASSERT_TRUE(unknown_sid.has_value());
  EXPECT_FALSE(unknown_sid->positive);
  EXPECT_EQ(unknown_sid->nrc, Nrc::kServiceNotSupported);
  ASSERT_TRUE(unknown_did.has_value());
  EXPECT_FALSE(unknown_did->positive);
  EXPECT_EQ(unknown_did->nrc, Nrc::kRequestOutOfRange);
}

TEST(DiagServer, RegisteredDataIdentifierServesProbeValue) {
  DiagWorld world;
  world.server.add_data_identifier(kDidMetricBase, "campaign.metric",
                                   [] { return 42.5; });
  std::optional<Response> response;
  world.tester.read_data(
      kDidMetricBase, [&](const std::optional<Response>& r) { response = r; });
  world.engine.run_until(SimTime(50'000));
  ASSERT_TRUE(response.has_value() && response->positive);
  // Payload: echoed DID (u16) + value (f32).
  ASSERT_EQ(response->data.size(), 6u);
  EXPECT_EQ(*get_u16(response->data, 0), kDidMetricBase);
  EXPECT_DOUBLE_EQ(*get_f32(response->data, 2), 42.5);
}

TEST(DiagServer, DamagedRequestIsSilentlyDiscarded) {
  DiagWorld world;
  // A raw frame on the request id without a valid E2E header must be
  // dropped by the protection layer: no response, no NRC, no reset.
  const auto endpoint = world.can.attach(
      "rogue", [](const bus::Frame&, SimTime) {});
  world.engine.schedule_at(SimTime(1'000), [&, endpoint] {
    world.can.transmit(endpoint,
                       bus::Frame{world.server.config().request_can_id,
                                  {0xDE, 0xAD, kSidEcuReset, 0x01}});
  });
  world.engine.run_until(SimTime(50'000));
  EXPECT_EQ(world.server.requests_accepted(), 0u);
  EXPECT_EQ(world.server.responses_sent(), 0u);
  EXPECT_GE(world.server.receiver().failures(), 1u);
  EXPECT_EQ(world.resets, 0);
}

TEST(DiagServer, OfflineBackendDropsRequestsAndTesterTimesOut) {
  DiagWorld world;
  world.offline = true;
  std::optional<Response> response{Response{}};  // sentinel: must become nullopt
  world.tester.tester_present(
      [&](const std::optional<Response>& r) { response = r; });
  world.engine.run_until(SimTime(100'000));
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(world.tester.timeouts(), 1u);
  EXPECT_EQ(world.server.requests_dropped_offline(), 1u);
}

TEST(DiagTester, QueuedTransactionsResolveInFifoOrder) {
  DiagWorld world;
  std::vector<int> order;
  world.tester.read_dtc_count(
      [&](const std::optional<Response>&) { order.push_back(1); });
  world.tester.tester_present(
      [&](const std::optional<Response>&) { order.push_back(2); });
  world.tester.read_data(kDidDtcCount, [&](const std::optional<Response>&) {
    order.push_back(3);
  });
  world.engine.run_until(SimTime(200'000));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(world.tester.requests_sent(), 3u);
  EXPECT_EQ(world.tester.responses_received(), 3u);
  EXPECT_EQ(world.tester.timeouts(), 0u);
}

TEST(DiagTester, TimeoutResolvesAndNextTransactionProceeds) {
  DiagWorld world;
  world.server.set_response_drop(true);
  bool first_timed_out = false;
  std::optional<Response> second;
  world.tester.read_dtc_count([&](const std::optional<Response>& r) {
    first_timed_out = !r.has_value();
    world.server.set_response_drop(false);
  });
  world.tester.read_dtc_count(
      [&](const std::optional<Response>& r) { second = r; });
  world.engine.run_until(SimTime(200'000));
  EXPECT_TRUE(first_timed_out);
  EXPECT_EQ(world.tester.timeouts(), 1u);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->positive);
}

// --- fleet health monitoring -------------------------------------------------

/// Acceptance criterion: the master flags a silenced remote node within
/// one polling period.
TEST(HealthMonitorMaster, FlagsSilencedRemoteNodeWithinOnePollingPeriod) {
  sim::Engine engine;
  bus::CanBus can(engine);

  validator::RemoteNodeConfig front_config;
  front_config.name = "front";
  front_config.heartbeat_can_id = 0x701;
  front_config.with_diag = true;
  front_config.diag.request_can_id = 0x610;
  front_config.diag.response_can_id = 0x618;
  front_config.diag.request_data_id = 0x70;
  front_config.diag.response_data_id = 0x71;
  validator::RemoteNode front(engine, can, front_config);

  validator::RemoteNodeConfig rear_config;
  rear_config.name = "rear";
  rear_config.heartbeat_can_id = 0x702;
  rear_config.with_diag = true;
  rear_config.diag.request_can_id = 0x620;
  rear_config.diag.response_can_id = 0x628;
  rear_config.diag.request_data_id = 0x72;
  rear_config.diag.response_data_id = 0x73;
  validator::RemoteNode rear(engine, can, rear_config);

  HealthMonitorMaster master(engine, can);
  DiagTesterConfig front_client;
  front_client.request_can_id = front_config.diag.request_can_id;
  front_client.response_can_id = front_config.diag.response_can_id;
  front_client.request_data_id = front_config.diag.request_data_id;
  front_client.response_data_id = front_config.diag.response_data_id;
  master.register_ecu("front", front_client);
  DiagTesterConfig rear_client;
  rear_client.request_can_id = rear_config.diag.request_can_id;
  rear_client.response_can_id = rear_config.diag.response_can_id;
  rear_client.request_data_id = rear_config.diag.request_data_id;
  rear_client.response_data_id = rear_config.diag.response_data_id;
  master.register_ecu("rear", rear_client);

  std::vector<std::pair<std::string, bool>> transitions;
  master.set_state_callback(
      [&](const std::string& name, bool silent, SimTime) {
        transitions.emplace_back(name, silent);
      });

  front.start();
  rear.start();
  master.start();

  // Both nodes answer: alive after the first poll cycles.
  engine.run_until(SimTime(350'000));
  ASSERT_NE(master.entry("front"), nullptr);
  EXPECT_EQ(master.entry("front")->state, FleetEntry::State::kAlive);
  EXPECT_EQ(master.entry("rear")->state, FleetEntry::State::kAlive);
  EXPECT_EQ(master.silent_count(), 0u);
  EXPECT_TRUE(transitions.empty());

  // Kill the front node. The next poll cycle starts within one polling
  // period (100 ms) and its transactions resolve after at most two
  // response timeouts (2 x 20 ms) — the node must be flagged silent by
  // then, while the rear node stays alive.
  const SimTime halt_at(350'000);
  engine.schedule_at(halt_at, [&] { front.halt(); });
  const Duration poll_period = master.config().poll_period;
  const Duration slack = master.config().response_timeout +
                         master.config().response_timeout;
  engine.run_until(halt_at + poll_period + slack);

  ASSERT_NE(master.entry("front"), nullptr);
  EXPECT_EQ(master.entry("front")->state, FleetEntry::State::kSilent);
  EXPECT_EQ(master.entry("front")->silent_transitions, 1u);
  EXPECT_EQ(master.entry("rear")->state, FleetEntry::State::kAlive);
  EXPECT_EQ(master.silent_count(), 1u);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], (std::pair<std::string, bool>{"front", true}));

  // Recovery: the first successful poll after resume() clears the flag.
  engine.schedule_at(SimTime(600'000), [&] { front.resume(); });
  engine.run_until(SimTime(800'000));
  EXPECT_EQ(master.entry("front")->state, FleetEntry::State::kAlive);
  EXPECT_EQ(master.entry("front")->recoveries, 1u);
  EXPECT_EQ(master.silent_count(), 0u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], (std::pair<std::string, bool>{"front", false}));
}

TEST(HealthMonitorMaster, FleetTableSurfacesThroughControlDesk) {
  sim::Engine engine;
  bus::CanBus can(engine);

  validator::RemoteNodeConfig node_config;
  node_config.name = "front";
  node_config.with_diag = true;
  validator::RemoteNode node(engine, can, node_config);

  HealthMonitorMaster master(engine, can);
  master.register_ecu("front", DiagTesterConfig{});

  util::TraceRecorder recorder;
  validator::ControlDesk desk(engine, recorder, Duration::millis(10));
  desk.watch_health_master(master, "fleet");

  node.start();
  master.start();
  desk.start(Duration::millis(900));
  engine.schedule_at(SimTime(400'000), [&] { node.halt(); });
  engine.run_until(SimTime(1'000'000));

  ASSERT_TRUE(recorder.has_signal("fleet.silent"));
  ASSERT_TRUE(recorder.has_signal("fleet.cycles"));
  ASSERT_TRUE(recorder.has_signal("fleet.front.alive"));
  // The plots show the node alive first, then the silent flag rising.
  EXPECT_DOUBLE_EQ(recorder.signal("fleet.front.alive").max_value(), 1.0);
  EXPECT_DOUBLE_EQ(recorder.signal("fleet.silent").max_value(), 1.0);
  EXPECT_GT(recorder.signal("fleet.cycles").max_value(), 4.0);
}

TEST(HealthMonitorMaster, AggregatesDtcCountsFromCentralBackend) {
  sim::Engine engine;
  bus::CanBus can(engine);
  rte::SignalBus signals;
  fmf::DtcStore dtcs(signals, {}, 8);
  DiagBackend backend;
  backend.dtcs = &dtcs;
  DiagServer server(engine, can, backend);
  wdg::ErrorReport report;
  report.application = ApplicationId(4);
  report.type = wdg::ErrorType::kArrivalRate;
  report.time = SimTime(1'000);
  dtcs.record(report);

  HealthMonitorMaster master(engine, can);
  master.register_ecu("central", DiagTesterConfig{});
  master.start();
  engine.run_until(SimTime(300'000));

  const FleetEntry* entry = master.entry("central");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, FleetEntry::State::kAlive);
  EXPECT_DOUBLE_EQ(entry->dtc_total, 1.0);
  EXPECT_DOUBLE_EQ(entry->dtc_active, 1.0);
  EXPECT_GE(entry->polls, 2u);
}

}  // namespace
}  // namespace easis::diag
