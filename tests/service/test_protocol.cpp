// Frame grammar + submit-spec validation of the gaipd control protocol:
// round-trips, reserved trace keys, oversized lines, the clamp-vs-reject
// split (register-analog values clamp like the init handshake; structural
// values reject with bad_field), and strict unknown-field rejection.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "service/job.hpp"
#include "service/protocol.hpp"

namespace {

using namespace gaip;
using service::Frame;
using service::ProtocolError;

std::string code_of(const std::function<void()>& f) {
    try {
        f();
    } catch (const ProtocolError& ex) {
        return ex.code();
    }
    return "";
}

TEST(Protocol, FrameRoundTrip) {
    Frame f("submit");
    f.add("pop", std::uint64_t{16});
    f.add("fitness", "OneMax");
    f.add("ratio", 0.5);
    const std::string line = service::to_line(f);
    // The verb is always the leading key so responses are eyeballable.
    EXPECT_EQ(line.rfind("{\"verb\":\"submit\"", 0), 0u) << line;
    const Frame g = service::parse_frame(line);
    EXPECT_EQ(g, f);
    EXPECT_EQ(g.u64("pop"), 16u);
    EXPECT_EQ(g.str("fitness"), "OneMax");
    EXPECT_FALSE(g.has("gens"));
    EXPECT_EQ(g.u64("gens", 42), 42u);  // default for absent keys
}

TEST(Protocol, OkFlag) {
    EXPECT_TRUE(service::ok_frame("ping").ok());
    EXPECT_FALSE(service::error_frame("ping", service::err::kBadFrame, "x").ok());
    EXPECT_FALSE(Frame("ping").ok());  // no ok field at all
    const Frame e = service::error_frame("submit", service::err::kQueueFull, "full");
    EXPECT_EQ(e.str("code"), service::err::kQueueFull);
    EXPECT_EQ(e.str("error"), "full");
}

TEST(Protocol, TypeMismatchThrowsBadField) {
    Frame f("x");
    f.add("pop", "sixteen");
    f.add("name", std::uint64_t{7});
    EXPECT_EQ(code_of([&] { (void)f.u64("pop"); }), service::err::kBadField);
    EXPECT_EQ(code_of([&] { (void)f.str("name"); }), service::err::kBadField);
}

TEST(Protocol, ParseRejectsGarbage) {
    EXPECT_EQ(code_of([] { service::parse_frame("not json at all"); }),
              service::err::kBadFrame);
    EXPECT_EQ(code_of([] { service::parse_frame("{\"pop\":16}"); }), service::err::kBadFrame)
        << "missing verb";
    EXPECT_EQ(code_of([] { service::parse_frame("{\"verb\":7}"); }), service::err::kBadFrame)
        << "non-string verb";
}

TEST(Protocol, ReservedTraceKeysRejected) {
    // "kind"/"t"/"cycle" belong to streamed trace events; a request using
    // them could not be told apart from an event on the same connection.
    EXPECT_EQ(code_of([] { service::parse_frame("{\"verb\":\"ping\",\"kind\":\"done\"}"); }),
              service::err::kBadFrame);
    EXPECT_EQ(code_of([] { service::parse_frame("{\"verb\":\"ping\",\"t\":5}"); }),
              service::err::kBadFrame);
    EXPECT_EQ(code_of([] { service::parse_frame("{\"verb\":\"ping\",\"cycle\":5}"); }),
              service::err::kBadFrame);
}

TEST(Protocol, OversizedLineRejected) {
    std::string line = "{\"verb\":\"ping\",\"pad\":\"";
    line.append(service::kMaxFrameBytes, 'x');
    line += "\"}";
    EXPECT_EQ(code_of([&] { service::parse_frame(line); }), service::err::kOversized);
}

TEST(Protocol, EventLineDetection) {
    EXPECT_TRUE(service::is_event_line("{\"kind\":\"generation\",\"t\":1,\"cycle\":2}"));
    EXPECT_TRUE(service::is_event_line("  {\"kind\":\"done\"}"));
    EXPECT_FALSE(service::is_event_line("{\"verb\":\"ping\"}"));
    EXPECT_FALSE(service::is_event_line("garbage"));
}

TEST(Protocol, VerbTableMatchesNames) {
    // kVerbs is what the docs drift test walks; it must carry every verb
    // exactly once.
    ASSERT_EQ(std::size(service::kVerbs), 8u);
    for (const char* v : service::kVerbs) EXPECT_FALSE(std::string(v).empty());
}

// ---- submit-spec validation ------------------------------------------------

Frame submit_base() {
    Frame f(service::verb::kSubmit);
    f.add("fitness", "OneMax");
    f.add("pop", std::uint64_t{16});
    f.add("gens", std::uint64_t{8});
    return f;
}

TEST(JobSpec, DefaultsAndEcho) {
    const service::JobSpec spec = service::parse_job_spec(submit_base());
    EXPECT_EQ(spec.fn, fitness::FitnessId::kOneMax);
    EXPECT_EQ(spec.params.pop_size, 16);
    EXPECT_EQ(spec.params.n_gens, 8u);
    EXPECT_EQ(spec.backend, core::Substrate::kGates);  // service default
    EXPECT_EQ(spec.islands, 0u);
    Frame echo("x");
    service::add_spec_fields(echo, spec);
    EXPECT_EQ(echo.u64("pop"), 16u);
    EXPECT_EQ(echo.str("fitness"), "OneMax");
    EXPECT_EQ(echo.str("backend"), "gates");
}

TEST(JobSpec, RegisterAnalogValuesClampSilently) {
    Frame f = submit_base();
    f.add("xover", std::uint64_t{0x7A});  // 4-bit threshold: & 0xF = 10
    f.add("mut", std::uint64_t{0x31});    // -> 1
    f.add("seed", std::uint64_t{0});      // seed 0 remaps to 1
    const service::JobSpec spec = service::parse_job_spec(f);
    EXPECT_EQ(spec.params.xover_threshold, 10);
    EXPECT_EQ(spec.params.mut_threshold, 1);
    EXPECT_EQ(spec.params.seed, 1);

    Frame big = submit_base();
    big.fields.clear();
    big.add("fitness", "OneMax");
    big.add("pop", std::uint64_t{500});  // clamp_pop_size ceiling
    EXPECT_EQ(service::parse_job_spec(big).params.pop_size, 128);
}

TEST(JobSpec, StructuralValuesReject) {
    const auto reject_code = [](const char* key, const char* val) {
        Frame f = submit_base();
        f.add(key, val);
        return code_of([&] { service::parse_job_spec(f); });
    };
    EXPECT_EQ(reject_code("backend", "quantum"), service::err::kBadField);
    EXPECT_EQ(reject_code("topology", "mesh"), service::err::kBadField);
    EXPECT_EQ(reject_code("policy", "best"), service::err::kBadField);

    Frame bad_fn = submit_base();
    bad_fn.fields.clear();
    bad_fn.add("fitness", "NoSuchFunction");
    EXPECT_EQ(code_of([&] { service::parse_job_spec(bad_fn); }), service::err::kBadField);

    Frame bad_words = submit_base();
    bad_words.add("words", std::uint64_t{3});  // lane blocks are 0/1/2/4/8
    EXPECT_EQ(code_of([&] { service::parse_job_spec(bad_words); }),
              service::err::kBadField);

    Frame too_many = submit_base();
    too_many.add("islands", std::uint64_t{65});
    EXPECT_EQ(code_of([&] { service::parse_job_spec(too_many); }), service::err::kBadField);
}

TEST(JobSpec, UnknownFieldRejected) {
    Frame f = submit_base();
    f.add("frobnicate", std::uint64_t{1});
    EXPECT_EQ(code_of([&] { service::parse_job_spec(f); }), service::err::kUnknownField);
}

TEST(JobSpec, SupervisedIslandsRequireRtl) {
    Frame f = submit_base();
    f.add("islands", std::uint64_t{4});
    f.add("supervise", std::uint64_t{1});
    f.add("backend", "behavioral");
    EXPECT_EQ(code_of([&] { service::parse_job_spec(f); }), service::err::kBadField);
}

TEST(JobSpec, FitnessByNameAndNumber) {
    EXPECT_EQ(service::fitness_by_name("OneMax"), fitness::FitnessId::kOneMax);
    EXPECT_EQ(service::fitness_by_name("mBF6_2"), fitness::FitnessId::kMBf6_2);
    EXPECT_EQ(service::fitness_by_name("6"), fitness::FitnessId::kOneMax);
    EXPECT_EQ(code_of([] { service::fitness_by_name("nope"); }), service::err::kBadField);
    EXPECT_EQ(code_of([] { service::fitness_by_name("99"); }), service::err::kBadField);
}

TEST(JobSpec, OverflowingFitnessIdIsBadField) {
    // Past 2^64 a numeric id must stay a bad_field, not an out_of_range
    // escaping as bad_frame.
    EXPECT_EQ(code_of([] { service::fitness_by_name("99999999999999999999"); }),
              service::err::kBadField);
}

TEST(JobSpec, MigrationCountEchoesEffectiveClamp) {
    // count saturates at min(16, pop/2) on the register path; the echo must
    // carry the effective value like the init handshake does.
    Frame f = submit_base();
    f.add("islands", std::uint64_t{4});
    f.add("interval", std::uint64_t{4});
    f.add("count", std::uint64_t{1000});
    const service::JobSpec spec = service::parse_job_spec(f);
    Frame echo("x");
    service::add_spec_fields(echo, spec);
    EXPECT_EQ(echo.u64("count"), 8u);  // pop 16 -> min(16, 8)
}

}  // namespace
