// Web Services (SOAP) encoding cost model — §III.D, "Why not Web Services".
//
// The paper rejects SOAP for the data path, citing Chiu et al.: XML
// serialisation/deserialisation and floating-point↔ASCII conversion are the
// bottlenecks, with interoperability recoverable through a WS proxy at the
// edge. This module quantifies exactly that decision: it models the SOAP
// envelope a monitoring message would become and the CPU it costs to
// encode/decode, so the ablation/webservices scenarios (the Narada port's
// `soap_proxy` option) can measure the overhead the paper avoided.
#pragma once

#include <cstdint>

#include "cluster/host.hpp"
#include "jms/message.hpp"
#include "narada/client.hpp"

namespace gridmon::gma {

struct SoapCostModel {
  /// Fixed envelope + headers (<soap:Envelope>, namespaces, WS-Addressing).
  std::int64_t envelope_bytes = 640;
  /// XML inflation of the binary payload (tags, text encoding): bytes of
  /// XML per byte of binary body.
  double xml_inflation = 2.6;
  /// CPU per XML byte produced/consumed (parse + build DOM-ish structures
  /// on the PIII; Chiu et al. measured SOAP an order of magnitude or more
  /// behind binary protocols).
  double xml_cpu_ns_per_byte = 1'400.0;
  /// Extra CPU per numeric field for the float/ASCII conversions the paper
  /// singles out.
  SimTime numeric_conversion = units::microseconds(9);

  /// Wire size of the message once wrapped in a SOAP envelope.
  [[nodiscard]] std::int64_t soap_wire_size(const jms::Message& msg) const {
    return envelope_bytes +
           static_cast<std::int64_t>(
               static_cast<double>(msg.wire_size()) * xml_inflation);
  }

  /// Count of numeric fields (properties + map body) needing conversion.
  [[nodiscard]] static int numeric_fields(const jms::Message& msg) {
    int count = 0;
    for (const auto& [name, value] : msg.properties()) {
      if (jms::is_numeric(value)) ++count;
    }
    if (const auto* map = std::get_if<jms::MapBody>(&msg.body)) {
      for (const auto& [name, value] : map->entries) {
        if (jms::is_numeric(value)) ++count;
      }
    }
    return count;
  }

  /// CPU demand to encode one message (binary → SOAP) at one endpoint.
  [[nodiscard]] SimTime codec_demand(const jms::Message& msg) const {
    return static_cast<SimTime>(
               static_cast<double>(soap_wire_size(msg)) *
               xml_cpu_ns_per_byte) +
           numeric_conversion * numeric_fields(msg);
  }

  /// CPU demand to decode a message that is *already* SOAP-sized on the
  /// wire (the receiving proxy parses the XML it was handed).
  [[nodiscard]] SimTime decode_demand(const jms::Message& soap_msg) const {
    return static_cast<SimTime>(
               static_cast<double>(soap_msg.wire_size()) *
               xml_cpu_ns_per_byte) +
           numeric_conversion * numeric_fields(soap_msg);
  }
};

/// A WS proxy in front of a Narada client: every publish pays SOAP encoding
/// on the client CPU and ships the inflated envelope; every delivery pays
/// SOAP decoding before the listener runs. This is the §III.D proxy design
/// point, made measurable.
class WsProxyPublisher {
 public:
  WsProxyPublisher(cluster::Host& host,
                   std::shared_ptr<narada::NaradaClient> client,
                   SoapCostModel model = {})
      : host_(host), client_(std::move(client)), model_(model) {}

  void publish(jms::Message message,
               narada::NaradaClient::SendCallback on_sent = nullptr) {
    const SimTime encode = model_.codec_demand(message);
    const std::int64_t pad =
        model_.soap_wire_size(message) - message.wire_size();
    // Carry the envelope inflation as opaque padding so the wire sees the
    // real SOAP size.
    message.map_set("soap_envelope",
                    std::string(static_cast<std::size_t>(pad > 0 ? pad : 0),
                                '<'));
    host_.cpu().execute(encode, [client = client_,
                                 message = std::move(message),
                                 on_sent = std::move(on_sent)]() mutable {
      client->publish(std::move(message), std::move(on_sent));
    });
  }

 private:
  cluster::Host& host_;
  std::shared_ptr<narada::NaradaClient> client_;
  SoapCostModel model_;
};

class WsProxySubscriber {
 public:
  WsProxySubscriber(cluster::Host& host,
                    std::shared_ptr<narada::NaradaClient> client,
                    SoapCostModel model = {})
      : host_(host), client_(std::move(client)), model_(model) {}
  // subscribe() hands the client a listener that holds `this`.
  WsProxySubscriber(const WsProxySubscriber&) = delete;
  WsProxySubscriber& operator=(const WsProxySubscriber&) = delete;

  void subscribe(const std::string& topic, const std::string& selector,
                 narada::NaradaClient::DeliveryListener listener) {
    client_->subscribe(
        topic, selector, jms::AcknowledgeMode::kAutoAcknowledge,
        [this, listener = std::move(listener)](const jms::MessagePtr& msg,
                                               SimTime arrived) {
          const SimTime decode = model_.decode_demand(*msg);
          host_.cpu().execute(decode, [listener, msg, arrived] {
            listener(msg, arrived);
          });
        });
  }

 private:
  cluster::Host& host_;
  std::shared_ptr<narada::NaradaClient> client_;
  SoapCostModel model_;
};

}  // namespace gridmon::gma
