#include "validator/network.hpp"

namespace easis::validator {

VehicleNetwork::VehicleNetwork(sim::Engine& engine,
                               rte::SignalBus& central_signals,
                               NetworkConfig config)
    : engine_(engine),
      signals_(central_signals),
      max_speed_signal_(central_signals.bind("safespeed.max_speed_kmh")),
      ambient_light_signal_(central_signals.bind("env.ambient_light")),
      speed_signal_(central_signals.bind("vehicle.speed_kmh")),
      config_(config),
      can_link_(config.fault_seed),
      flexray_link_(config.fault_seed + 1),
      lin_link_(config.fault_seed + 2) {
  can_ = std::make_unique<bus::CanBus>(engine_, config_.can_bitrate_bps);
  flexray_ = std::make_unique<bus::FlexRayBus>(engine_, config_.flexray);
  gateway_ = std::make_unique<bus::Gateway>(engine_, config_.gateway_latency);
  can_->set_fault_link(&can_link_);
  flexray_->set_fault_link(&flexray_link_);

  if (config_.e2e_protection) {
    max_speed_tx_.emplace(bus::E2EConfig{config_.max_speed_data_id, 1});
    max_speed_rx_.emplace(bus::E2EConfig{config_.max_speed_data_id, 1});
    speed_tx_.emplace(bus::E2EConfig{config_.speed_broadcast_data_id, 1});
    speed_rx_.emplace(bus::E2EConfig{config_.speed_broadcast_data_id, 1});
  }

  // Central node on CAN: receives the routed max-speed command.
  central_can_endpoint_ = can_->attach(
      "central", [this](const bus::Frame& frame, sim::SimTime now) {
        if (frame.id != config_.can_max_speed_id) return;
        std::size_t offset = 0;
        if (max_speed_rx_) {
          const bus::E2EStatus status = max_speed_rx_->check(frame);
          if (max_speed_check_listener_) {
            max_speed_check_listener_(status, now);
          }
          if (status != bus::E2EStatus::kOk) {
            // Rejected data is *no* data: the signal ages into its
            // reception deadline instead of carrying garbage.
            ++e2e_rejections_;
            return;
          }
          offset = bus::kE2EHeaderBytes;
        }
        if (auto kmh = bus::decode_f32(frame, offset)) {
          ++commands_received_;
          signals_.publish(max_speed_signal_, *kmh, now);
        } else {
          ++decode_failures_;
        }
      });

  // Gateway endpoint on CAN (routes towards/from other domains).
  auto can_ingress = gateway_->register_domain(
      "can", [this](bus::Frame frame) {
        // The gateway is CAN endpoint #1 (attached below).
        can_->transmit(gateway_can_endpoint_, std::move(frame));
      });
  gateway_can_endpoint_ = can_->attach("gateway", std::move(can_ingress));

  // Telematics (TCP/IP) domain: direct channel into the gateway.
  telematics_ingress_ = gateway_->register_domain(
      "telematics", [](bus::Frame) { /* nothing routed back out today */ });

  // FlexRay: central node broadcasts speed; dynamics node listens.
  central_fr_endpoint_ = flexray_->attach("central", nullptr);
  dynamics_fr_endpoint_ = flexray_->attach(
      "dynamics", [this](const bus::Frame& frame, sim::SimTime now) {
        std::size_t offset = 0;
        if (speed_rx_) {
          const bus::E2EStatus status = speed_rx_->check(frame);
          if (speed_check_listener_) speed_check_listener_(status, now);
          if (status != bus::E2EStatus::kOk) {
            ++e2e_rejections_;
            return;
          }
          offset = bus::kE2EHeaderBytes;
        }
        if (auto kmh = bus::decode_f32(frame, offset)) {
          last_speed_ = *kmh;
        } else {
          ++decode_failures_;
        }
      });
  flexray_->assign_slot(config_.speed_slot, central_fr_endpoint_);

  // Route: telematics max-speed command -> vehicle CAN.
  gateway_->add_route("telematics", config_.telematics_max_speed_id, "can",
                      config_.can_max_speed_id);

  // LIN body bus: the master (central body controller) polls the ambient
  // light sensor and publishes the value onto the central signal bus.
  lin_ = std::make_unique<bus::LinBus>(engine_, config_.lin_slot);
  lin_->set_fault_link(&lin_link_);
  lin_->attach("body_master",
               [this](const bus::Frame& frame, sim::SimTime now) {
                 if (frame.id != config_.lin_ambient_frame_id) return;
                 if (auto level = bus::decode_f32(frame, 0)) {
                   signals_.publish(ambient_light_signal_, *level, now);
                 } else {
                   ++decode_failures_;
                 }
               });
  const auto sensor_slave = lin_->attach("ambient_sensor", nullptr);
  lin_->set_publisher(config_.lin_ambient_frame_id, sensor_slave, [this] {
    bus::Frame frame;
    bus::encode_f32(frame, 0, ambient_level_);
    return std::optional<std::vector<std::uint8_t>>(std::move(frame.payload));
  });
  lin_->set_schedule({config_.lin_ambient_frame_id});
}

void VehicleNetwork::start() {
  running_ = true;
  flexray_->start();
  lin_->start();
  schedule_speed_broadcast();
}

void VehicleNetwork::command_max_speed(double kmh) {
  bus::Frame frame;
  frame.id = config_.telematics_max_speed_id;
  bus::encode_f32(frame, 0, kmh);
  if (max_speed_tx_) max_speed_tx_->protect(frame);
  // Telematics frames enter the gateway directly (TCP/IP domain).
  telematics_ingress_(frame, engine_.now());
}

bus::BabblingIdiot& VehicleNetwork::babbler() {
  if (!babbler_) {
    const auto endpoint = can_->attach("babbler", nullptr);
    babbler_ = std::make_unique<bus::BabblingIdiot>(
        engine_, [this, endpoint](bus::Frame frame) {
          can_->transmit(endpoint, std::move(frame));
        });
  }
  return *babbler_;
}

void VehicleNetwork::schedule_speed_broadcast() {
  engine_.schedule_in(config_.speed_broadcast_period, [this] {
    if (!running_) return;
    bus::Frame frame;
    frame.id = 0x200 + config_.speed_slot;
    bus::encode_f32(frame, 0, signals_.read_or(speed_signal_, 0.0));
    if (speed_tx_) speed_tx_->protect(frame);
    flexray_->send(central_fr_endpoint_, config_.speed_slot,
                   std::move(frame));
    schedule_speed_broadcast();
  });
}

}  // namespace easis::validator
