// Tests for the live exposition server (src/obs/http_exporter.h,
// DESIGN.md §9): endpoint rendering, and a real-socket round trip
// against every endpoint plus the 404 and 405 paths.

#include "obs/http_exporter.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

TEST(ObsHttpExporterTest, DisabledBuildRefusesToStart) {
  HttpExporter exporter;
  std::string error;
  EXPECT_FALSE(exporter.Start(0, &error));
  EXPECT_NE(error.find("UCR_METRICS=OFF"), std::string::npos) << error;
  EXPECT_FALSE(exporter.running());
}

#else

/// One blocking HTTP exchange against 127.0.0.1:`port`; returns the
/// raw response (status line + headers + body).
std::string HttpRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return HttpRequest(port,
                     "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/// The keys of `json`'s `"phases"` object whose values are objects
/// (one per phase; the panel's scalar `window_total_ns` is skipped),
/// in order.
std::vector<std::string> PhasePanelNames(const std::string& json) {
  std::vector<std::string> names;
  const std::string anchor = "\"phases\":{";
  size_t i = json.find(anchor);
  if (i == std::string::npos) return names;
  int depth = 1;
  for (i += anchor.size(); i < json.size() && depth > 0; ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}') --depth;
    if (depth != 1 || json[i] != '"') continue;
    const size_t end = json.find('"', i + 1);
    if (end == std::string::npos) break;
    if (json.compare(end + 1, 2, ":{") == 0) {
      names.push_back(json.substr(i + 1, end - i - 1));
    }
    i = end;
  }
  return names;
}

/// Every key in `json` (at any depth) that ends in `suffix`, in order.
std::vector<std::string> KeysEndingIn(const std::string& json,
                                      const std::string& suffix) {
  std::vector<std::string> keys;
  for (size_t colon = json.find("\":"); colon != std::string::npos;
       colon = json.find("\":", colon + 1)) {
    const size_t open = json.rfind('"', colon - 1);
    if (open == std::string::npos) break;
    const std::string key = json.substr(open + 1, colon - open - 1);
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(ObsHttpExporterTest, RenderEndpointCoversAllPaths) {
  // Touch one counter so /metrics is non-empty.
  Registry::Global().GetCounter("ucr_exporter_test_total", "t").Inc();

  std::string body;
  std::string type;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/metrics", &body, &type));
  EXPECT_NE(type.find("text/plain"), std::string::npos);
  EXPECT_NE(body.find("# HELP"), std::string::npos);
  EXPECT_NE(body.find("ucr_exporter_test_total"), std::string::npos);

  ASSERT_TRUE(HttpExporter::RenderEndpoint("/healthz", &body, &type));
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(HttpExporter::RenderEndpoint("/varz", &body, &type));
  EXPECT_NE(type.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonLooksValid(body)) << body;
  EXPECT_NE(body.find("\"epoch\""), std::string::npos);
  EXPECT_NE(body.find("\"current\""), std::string::npos);
  EXPECT_NE(body.find("\"readers\""), std::string::npos);
  EXPECT_NE(body.find("\"lag\""), std::string::npos);
  EXPECT_NE(body.find("\"tracer\""), std::string::npos);
  EXPECT_NE(body.find("\"audit\""), std::string::npos);
  EXPECT_NE(body.find("\"shadow\""), std::string::npos);

  ASSERT_TRUE(HttpExporter::RenderEndpoint("/tracez", &body, &type));
  EXPECT_TRUE(JsonLooksValid(body)) << body;
  EXPECT_NE(body.find("\"traces\""), std::string::npos);
  EXPECT_NE(body.find("\"shadow_mismatches\""), std::string::npos);

  // /statz reports the one memo there is (the snapshot epoch tables),
  // the front-door latencies (batch queries count as system queries),
  // and one panel entry per resolve phase.
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/statz", &body, &type));
  EXPECT_NE(type.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonLooksValid(body)) << body;
  EXPECT_NE(body.find("\"snapshot_cache_hit_rate\""), std::string::npos);
  EXPECT_EQ(body.find("\"resolution_cache_hit_rate\""), std::string::npos)
      << body;
  EXPECT_EQ(KeysEndingIn(body, "_p99_ns"),
            (std::vector<std::string>{"resolve_p99_ns", "system_p99_ns",
                                      "snapshot_p99_ns"}))
      << body;
  EXPECT_EQ(PhasePanelNames(body),
            (std::vector<std::string>{"cache_probe", "extract", "propagate",
                                      "compose", "resolve"}))
      << body;

  EXPECT_FALSE(HttpExporter::RenderEndpoint("/nope", &body, &type));
}

TEST(ObsHttpExporterTest, ServesAllEndpointsOverARealSocket) {
  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &error)) << error;
  ASSERT_TRUE(exporter.running());
  ASSERT_NE(exporter.port(), 0);

  const std::string metrics = Get(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Length:"), std::string::npos);

  const std::string healthz = Get(exporter.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string varz = Get(exporter.port(), "/varz");
  EXPECT_NE(varz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(varz.find("\"metrics\""), std::string::npos);

  // Query strings are ignored when routing (Prometheus scrapers may
  // append parameters).
  const std::string tracez = Get(exporter.port(), "/tracez?limit=5");
  EXPECT_NE(tracez.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(tracez.find("\"traces\""), std::string::npos);

  const std::string missing = Get(exporter.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  const std::string post = HttpRequest(
      exporter.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;

  EXPECT_GE(exporter.requests_total(), 6u);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
}

TEST(ObsHttpExporterTest, StopIsIdempotentAndRestartWorks) {
  HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0));
  const uint16_t first_port = exporter.port();
  EXPECT_NE(first_port, 0);
  exporter.Stop();
  exporter.Stop();  // Idempotent.

  ASSERT_TRUE(exporter.Start(0));
  EXPECT_NE(Get(exporter.port(), "/healthz").find("200 OK"),
            std::string::npos);
  exporter.Stop();
}

TEST(ObsHttpExporterTest, StallingClientDoesNotWedgeTheServer) {
  HttpExporter exporter;
  // Short timeout so the test runs in milliseconds; production default
  // is 5s.
  exporter.set_client_timeout_ms(200);
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &error)) << error;

  // A client that connects and never sends a byte. Before the socket
  // timeouts, this parked the single-threaded accept loop in recv()
  // forever and every later scrape hung.
  const int staller = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(staller, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(staller, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);

  // A well-behaved scrape issued while the staller holds the loop: it
  // must still be answered (after at most the timeout), proving the
  // stalled connection was dropped rather than served forever.
  const std::string healthz = Get(exporter.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos) << healthz;
  EXPECT_GE(exporter.timeouts_total(), 1u);

  // A second stalled connection, this time with a half-written request
  // (no header terminator): same outcome.
  const int partial = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(partial, 0);
  ASSERT_EQ(
      ::connect(partial, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  const char half[] = "GET /metrics HTT";
  ASSERT_EQ(::send(partial, half, sizeof(half) - 1, 0),
            static_cast<ssize_t>(sizeof(half) - 1));
  const std::string varz = Get(exporter.port(), "/varz");
  EXPECT_NE(varz.find("HTTP/1.1 200 OK"), std::string::npos) << varz;
  EXPECT_GE(exporter.timeouts_total(), 2u);

  ::close(staller);
  ::close(partial);
  exporter.Stop();
}

TEST(ObsHttpExporterTest, PortAlreadyInUseFailsWithError) {
  HttpExporter first;
  ASSERT_TRUE(first.Start(0));
  HttpExporter second;
  std::string error;
  EXPECT_FALSE(second.Start(first.port(), &error));
  EXPECT_FALSE(error.empty());
  first.Stop();
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
