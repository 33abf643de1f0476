#include "trace/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gaip::trace {

namespace {

void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void append_value(std::string& out, const Value& v) {
    if (const auto* u = std::get_if<std::uint64_t>(&v)) {
        append_u64(out, *u);
    } else if (const auto* d = std::get_if<double>(&v)) {
        // %.17g round-trips every finite double through strtod.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", *d);
        out += buf;
    } else {
        append_escaped(out, std::get<std::string>(v));
    }
}

/// Minimal recursive-descent reader for the flat objects the writer emits.
class LineParser {
public:
    explicit LineParser(const std::string& s) : s_(s) {}

    TraceEvent parse() {
        TraceEvent e;
        skip_ws();
        expect('{');
        skip_ws();
        if (peek() == '}') {
            ++i_;
            return e;
        }
        for (;;) {
            skip_ws();
            const std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            if (key == "kind") {
                e.kind = parse_string();
            } else if (key == "t") {
                e.t = parse_u64();
            } else if (key == "cycle") {
                e.cycle = parse_u64();
            } else {
                e.fields.push_back({key, parse_value()});
            }
            skip_ws();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect('}');
            return e;
        }
    }

private:
    [[noreturn]] void fail(const char* what) const {
        throw std::runtime_error(std::string("jsonl: ") + what + " at column " +
                                 std::to_string(i_ + 1));
    }

    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    void expect(char c) {
        if (peek() != c) fail("unexpected character");
        ++i_;
    }
    void skip_ws() {
        while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                if (i_ >= s_.size()) fail("truncated escape");
                const char esc = s_[i_++];
                switch (esc) {
                    case '"': c = '"'; break;
                    case '\\': c = '\\'; break;
                    case '/': c = '/'; break;
                    case 'n': c = '\n'; break;
                    case 'r': c = '\r'; break;
                    case 't': c = '\t'; break;
                    case 'u': {
                        if (i_ + 4 > s_.size()) fail("truncated \\u escape");
                        const std::string hex = s_.substr(i_, 4);
                        i_ += 4;
                        c = static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
                        break;
                    }
                    default: fail("unknown escape");
                }
            }
            out += c;
        }
        expect('"');
        return out;
    }

    std::uint64_t parse_u64() {
        const Value v = parse_value();
        if (const auto* u = std::get_if<std::uint64_t>(&v)) return *u;
        fail("expected unsigned integer");
    }

    Value parse_value() {
        if (peek() == '"') return Value{parse_string()};
        const std::size_t start = i_;
        bool is_double = false;
        while (i_ < s_.size()) {
            const char c = s_[i_];
            if (c == '.' || c == 'e' || c == 'E') is_double = true;
            if (c == '-' || c == '+' || c == '.' || std::isalnum(static_cast<unsigned char>(c))) {
                ++i_;
            } else {
                break;
            }
        }
        if (i_ == start) fail("expected value");
        const std::string tok = s_.substr(start, i_ - start);
        if (tok[0] == '-') is_double = true;  // negative values only arrive as doubles
        char* end = nullptr;
        if (is_double) {
            const double d = std::strtod(tok.c_str(), &end);
            if (end != tok.c_str() + tok.size()) fail("bad number");
            return Value{d};
        }
        const std::uint64_t u = std::strtoull(tok.c_str(), &end, 10);
        if (end != tok.c_str() + tok.size()) fail("bad number");
        return Value{u};
    }

    const std::string& s_;
    std::size_t i_ = 0;
};

}  // namespace

void append_json_line(std::string& out, const TraceEvent& e) {
    out += "{\"kind\":";
    append_escaped(out, e.kind);
    out += ",\"t\":";
    append_u64(out, e.t);
    out += ",\"cycle\":";
    append_u64(out, e.cycle);
    for (const Field& f : e.fields) {
        out += ',';
        append_escaped(out, f.key);
        out += ':';
        append_value(out, f.value);
    }
    out += '}';
}

std::string to_json_line(const TraceEvent& e) {
    std::string out;
    append_json_line(out, e);
    return out;
}

TraceEvent from_json_line(const std::string& line) { return LineParser(line).parse(); }

std::vector<TraceEvent> load_jsonl(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("load_jsonl: cannot open " + path);
    std::vector<TraceEvent> out;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        try {
            out.push_back(from_json_line(line));
        } catch (const std::exception& ex) {
            throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + ex.what());
        }
    }
    return out;
}

JsonlSink::JsonlSink(const std::string& path) : out_(path) {
    if (!out_) throw std::runtime_error("JsonlSink: cannot open " + path);
}

void JsonlSink::on_event(const TraceEvent& e) {
    line_.clear();
    append_json_line(line_, e);
    line_ += '\n';
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    ++count_;
}

}  // namespace gaip::trace
