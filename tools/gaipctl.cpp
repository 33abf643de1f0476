// gaipctl — control client for gaipd (the bessctl of this repo).
//
//   gaipctl ping
//   gaipctl submit --fitness OneMax --pop 32 --gens 64 [--follow]
//   gaipctl status 3
//   gaipctl list
//   gaipctl cancel 3
//   gaipctl stream 3
//   gaipctl stats
//   gaipctl shutdown
//
// All output is the daemon's own newline-delimited JSON, one frame or
// streamed trace event per line — pipe it to jq or the trace tools.
//
// Exit status (scripts rely on the split — see docs/GAIPD.md):
//   0  success           2  usage error
//   1  remote/job error  4  cannot connect to the daemon
//   6  op deadline hit   5  daemon answered a malformed frame
//
// Resilience: connects retry with exponential backoff + jitter
// (--retries/--backoff-ms), ops can carry a deadline (--timeout-ms),
// `ping --wait N` polls until the daemon answers (readiness probe), and
// `stream`/`submit --follow` survive a daemon restart mid-stream by
// reconnecting and resuming the same job id.
#include <cstdio>
#include <string>

#include "tools/cli.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;
using service::Frame;

void usage() {
    std::printf(
        "usage: gaipctl [-s SOCKET] [--retries N] [--backoff-ms N] [--timeout-ms N] VERB [args]\n"
        "  -s, --socket PATH  daemon socket (default gaipd.sock)\n"
        "  --retries N        connect/stream retry budget (default 3)\n"
        "  --backoff-ms N     first retry delay; doubles, jittered (default 50)\n"
        "  --timeout-ms N     per-operation deadline; exit 6 when hit (default none)\n"
        "verbs:\n"
        "  ping [--wait N]     liveness check; --wait polls up to N seconds\n"
        "                      until the daemon answers (readiness probe)\n"
        "  submit [FIELDS] [--follow]\n"
        "                      queue a job; --follow streams it to completion\n"
        "                      (resumes across a daemon restart)\n"
        "  status ID           one job's record\n"
        "  list                every job the daemon knows\n"
        "  cancel ID           cooperative cancel\n"
        "  stream ID           follow a job's trace events until it ends;\n"
        "                      reconnects + resumes across a daemon restart\n"
        "  stats               aggregate daemon counters\n"
        "  shutdown [--drain]  stop the daemon; --drain finishes running jobs\n"
        "                      and journals the queue for the next boot\n"
        "submit fields (all optional; names match the submit frame schema):\n"
        "%s",
        cli::job_flag_help(cli::JobFlags::submit_defaults(), 2, 22).c_str());
}

void print_frame(const Frame& f) { std::printf("%s\n", service::to_line(f).c_str()); }

void print_event(const trace::TraceEvent& e) {
    std::printf("%s\n", trace::to_json_line(e).c_str());
    std::fflush(stdout);
}

int run(int argc, char** argv) {
    std::string socket_path = "gaipd.sock";
    service::RetryPolicy policy;
    policy.attempts = 3;  // keep a dead-daemon diagnosis fast (~150 ms)
    cli::Args args(argc, argv, 1);
    std::string verb;
    while (verb.empty()) {
        if (!args.more()) {
            usage();
            return 2;
        }
        const std::string& a = args.next();
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "-s" || a == "--socket") {
            socket_path = args.value();
        } else if (a == "--retries") {
            policy.attempts = static_cast<unsigned>(args.number(1, UINT32_MAX));
        } else if (a == "--backoff-ms") {
            policy.base_ms = static_cast<unsigned>(args.number(0, UINT32_MAX));
        } else if (a == "--timeout-ms") {
            policy.op_deadline_ms = args.number();
        } else {
            verb = a;
        }
    }
    // Validate everything local (verb, ids, submit flags) BEFORE touching
    // the socket, so usage errors exit 2 even when no daemon is running.
    const bool known = verb == "ping" || verb == "submit" || verb == "status" ||
                       verb == "list" || verb == "cancel" || verb == "stream" ||
                       verb == "stats" || verb == "shutdown";
    if (!known) {
        std::fprintf(stderr, "gaipctl: unknown verb '%s'\n", verb.c_str());
        usage();
        return 2;
    }
    cli::JobFlags job = cli::JobFlags::submit_defaults();
    bool follow = false;
    bool drain = false;
    double wait_s = -1;
    std::uint64_t id = 0;
    if (verb == "submit") {
        // The GA-core defaults are the local CLIs'; the daemon supplies the
        // rest. The job is validated here too, so a bad value is a usage
        // error even with no daemon up.
        while (args.more()) {
            if (args.next() == "--follow") follow = true;
            else if (!job.take(args)) args.unknown();
        }
        job.spec();
    } else if (verb == "status" || verb == "cancel" || verb == "stream") {
        if (!args.more() || !cli::parse_unsigned(args.next(), id) || args.more())
            throw cli::UsageError(verb + " wants one job id");
    } else if (verb == "ping" && args.more()) {
        if (args.next() != "--wait") args.unknown();
        wait_s = args.real();
    } else if (verb == "shutdown" && args.more()) {
        if (args.next() != "--drain") args.unknown();
        drain = true;
    }
    if (args.more()) throw cli::UsageError("bad arguments for '" + verb + "'");

    // Readiness probe and resilient stream manage their own connections
    // (they may have to dial more than once).
    if (verb == "ping" && wait_s >= 0) {
        if (service::ping_wait(socket_path, wait_s, policy)) {
            std::printf("pong\n");
            return 0;
        }
        std::fprintf(stderr, "gaipctl: daemon did not answer within %.3f s\n", wait_s);
        return 4;
    }
    if (verb == "stream") {
        const Frame end = service::stream_with_resume(socket_path, id, policy, print_event);
        print_frame(end);
        return end.str("state") == "done" ? 0 : 1;
    }

    service::Client c = service::Client::dial(socket_path, policy);
    if (verb == "ping") {
        c.ping();
        std::printf("pong\n");
        return 0;
    } else if (verb == "submit") {
        const Frame ack = c.rpc(job.frame);
        print_frame(ack);
        if (!follow) return 0;
        const Frame end =
            service::stream_with_resume(socket_path, ack.u64("id"), policy, print_event);
        print_frame(end);
        return end.str("state") == "done" ? 0 : 1;
    } else if (verb == "status") {
        print_frame(c.status(id));
        return 0;
    } else if (verb == "list") {
        c.send(Frame(service::verb::kList));
        for (;;) {
            const Frame f = c.read_frame();
            print_frame(f);
            if (f.verb == service::verb::kList) return f.ok() ? 0 : 1;
        }
    } else if (verb == "cancel") {
        switch (c.cancel(id)) {
            case service::CancelOutcome::kCancelled: std::printf("cancelled\n"); return 0;
            case service::CancelOutcome::kTooLate: std::printf("too late\n"); return 1;
            case service::CancelOutcome::kNotFound:
                std::fprintf(stderr, "gaipctl: no such job %llu\n",
                             static_cast<unsigned long long>(id));
                return 1;
        }
        return 1;
    } else if (verb == "stats") {
        print_frame(c.stats());
        return 0;
    } else if (verb == "shutdown") {
        Frame req(service::verb::kShutdown);
        if (drain) req.add("drain", std::uint64_t{1});
        c.rpc(req);
        std::printf(drain ? "draining\n" : "ok\n");
        return 0;
    }
    return 2;  // unreachable: verbs validated above
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const cli::UsageError& e) {
        std::fprintf(stderr, "gaipctl: %s\n", e.what());
        return 2;
    } catch (const service::TimeoutError& e) {
        std::fprintf(stderr, "gaipctl: %s\n", e.what());
        return 6;
    } catch (const service::ConnectError& e) {
        std::fprintf(stderr, "gaipctl: %s\n", e.what());
        return 4;
    } catch (const service::MalformedResponse& e) {
        std::fprintf(stderr, "gaipctl: %s\n", e.what());
        return 5;
    } catch (const service::RemoteError& e) {
        std::fprintf(stderr, "gaipctl: %s: %s\n", e.code().c_str(), e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gaipctl: %s\n", e.what());
        return 1;
    }
}
