// Shared command-line plumbing of the five tools: one strict number parser,
// one argv cursor, one --flip parser, the job-flag walk over the submit
// schema (service::submit_schema) and one --daemon runner. A job flag is
// parsed here and validated by service::parse_job_spec, exactly as the
// daemon validates a submit frame.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "fault/fault_model.hpp"
#include "service/client.hpp"

namespace gaip::cli {

/// A bad command line: the tool prints "<tool>: <what>" on stderr and exits
/// with its usage code.
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();

/// Strict unsigned number: the whole of `s`, decimal or 0x hex, no sign or
/// blanks, no overflow.
bool parse_unsigned(const std::string& s, std::uint64_t& out);

/// Comma-separated items; empty items are dropped.
std::vector<std::string> split_csv(const std::string& s);

/// Fail fast on an unwritable output path, before a long run: an
/// append-mode probe creates the file if the directory allows it and
/// touches nothing that exists. Throws UsageError "cannot open ...".
void require_writable(const std::string& path, const char* what);

/// Cursor over argv[first..argc). next() takes a flag; value(), number(),
/// real() and flip() take its value and throw UsageError when it is missing
/// or malformed.
class Args {
public:
    Args(int argc, char** argv, int first) : argc_(argc), argv_(argv), at_(first) {}

    bool more() const noexcept { return at_ < argc_; }
    const std::string& next() { return flag_ = argv_[at_++]; }
    const std::string& flag() const noexcept { return flag_; }

    std::string value();
    std::uint64_t number(std::uint64_t min = 0, std::uint64_t max = kNoMax);
    double real();
    /// --flip REG:BIT:CYC: one SEU site.
    fault::FaultSite flip();
    /// "unknown option 'FLAG'".
    [[noreturn]] void unknown() const;

private:
    int argc_;
    char** argv_;
    int at_;
    std::string flag_;
};

/// The job one command line describes: the submit frame its job flags fill.
/// There is one flag per submit-schema field, --key with '-' for '_'
/// (mig_seed -> --mig-seed). A flag replaces its field's value.
struct JobFlags {
    service::Frame frame{service::verb::kSubmit};
    /// Take only the GA-core fields (fitness and the handshake registers).
    bool core_only = false;

    /// The local CLIs' documented default job: mBF6_2, pop 32, gens 32,
    /// xover 10, mut 1, seed 0x2961; GA-core flags only.
    static JobFlags local_defaults();

    /// Take the current flag if it names a job field; false, consuming
    /// nothing, otherwise.
    bool take(Args& args);
    /// service::parse_job_spec of the frame; a bad value is a UsageError.
    service::JobSpec spec() const;
    /// The register values a local init handshake writes (seed 0 stays 0).
    core::GaParameters handshake() const { return service::handshake_parameters(frame); }
};

/// The parameters a run uses: resolve_parameters plus the preset's seed.
core::GaParameters run_parameters(std::uint8_t preset, const core::GaParameters& handshake);

/// Thin-client run: dial `socket` (3 attempts), run `spec` to its end with
/// its events to `on_event`, and return render(final status frame).
/// ConnectError exits 4 and MalformedResponse 5, after "<tool>: <what>" on
/// stderr; any other error propagates to the tool's own exit code.
int run_on_daemon(const char* tool, const std::string& socket, const service::JobSpec& spec,
                  const std::function<int(const service::Frame&)>& render,
                  const std::function<void(const trace::TraceEvent&)>& on_event = nullptr);

}  // namespace gaip::cli
