// w5flow — whole-program DIFC taint analysis + lock-order checker for
// the W5 tree (DESIGN.md §19).
//
// w5lint (DESIGN.md §14) gates *structural* rules: which directories may
// include which, where raw syscalls may appear. This tool gates the two
// remaining prose invariants:
//
//   taint      §3.1/§3.5: user data bytes (store::Record values) reach a
//              telemetry/log/egress sink only through a sanctioned
//              cleanser. Pass 1 builds a per-translation-unit symbol
//              graph — functions, their calls, which identifiers carry
//              record-derived values — and reports every source→sink
//              path with no cleanser on it, with the call chain in the
//              error message.
//   lockorder  The 22+ locking classes carry Clang TSA annotations, but
//              nothing checked that locks are *ordered*. Pass 2 extracts
//              the static lock-acquisition graph (a scoped guard
//              constructed while another guard is live = edge, plus
//              edges through calls made under a live guard), checks it
//              is acyclic, and checks every edge against the documented
//              rank registry tools/w5flow_lock_order.txt — which must
//              also stay in sync with src/util/lock_ranks.h and with the
//              set of mutexes actually declared in the tree.
//
// The analysis is textual (no compiler frontend, same dependency budget
// as w5lint: C++20 + <filesystem>), so it is deliberately paired with a
// runtime witness: debug builds check every ranked acquisition against
// the same registry (util/lock_witness.h), covering the paths — virtual
// calls, function pointers, locks reached through native() — a textual
// scan cannot see.
//
// Usage: w5flow <src-root> [--lock-order <file>] [--ranks-header <file>]
//
// With no --lock-order, the rank/registry checks are skipped (fixture
// trees exercise the graph checks without carrying a registry); cycle
// detection and taint always run. --ranks-header defaults to
// <src-root>/util/lock_ranks.h when --lock-order is given.
//
// Suppressions are in-file and must carry a justification:
//   // w5flow-allow(taint): <why this flow is sanctioned>
//   // w5flow-allow(native): <why this lock bypasses the witness>
// A bare marker with no justification is itself an error. The marker
// suppresses findings reported on its own line or the line below.
//
// Exit 0: clean. Exit 1: violations. Exit 2: bad usage.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Model configuration: sources, cleansers, sinks.
// ---------------------------------------------------------------------------

// The user-data-bearing type. Any parameter/local whose declared type
// names it, and any value produced by a function returning it, is taint.
const std::string kTaintType = "Record";

// Sanctioned cleansers: wrapping an argument in one of these launders it
// for telemetry purposes (§3.5: tokens are charset/length-clamped,
// counts are quantized).
const std::vector<std::string> kCleansers = {"sanitize_telemetry_token",
                                             "quantize_count"};

// A function that consults a declassifier gate is a sanctioned export
// path (§3.1): the decision — not the analyzer — owns what leaves.
const std::vector<std::string> kGateCalls = {"decide", "check_export"};

// Sink calls: member/free functions whose string-ish arguments become
// externally visible bytes (log lines, metric names, trace notes, span
// labels, outbound HTTP). Receiving record-derived data here uncleansed
// is the violation.
const std::vector<std::string> kSinkCalls = {
    // util/log sink
    "log_debug", "log_info", "log_warn", "log_error",
    // util/metrics: metric *names* (the values are integral)
    "counter", "gauge", "histogram", "observe_with_exemplar",
    // core/trace + net/tracing: spans, notes, routes
    "add_span", "set_note", "set_route", "set_parent_span", "append_spans",
    // net::HttpClient egress
    "roundtrip", "roundtrip_with_retry",
    // AuditLog::record (GET /audit, /dev-stats), and TraceBuffer::record
    // and FlightRecorder::record (/trace, /debug/slowlog)
    "record"};

const std::set<std::string> kKeywords = {
    "if",     "for",    "while",   "switch",   "catch",    "return",
    "do",     "else",   "sizeof",  "new",      "delete",   "case",
    "static", "struct", "class",   "enum",     "namespace", "union",
    "const",  "constexpr", "auto", "template", "typename", "using",
    "public", "private", "protected", "operator", "throw", "co_return",
    "alignof", "decltype", "noexcept", "static_assert", "this", "default"};

struct Violation {
  std::string check;
  std::string path;
  std::size_t line;
  std::string message;
};

// ---------------------------------------------------------------------------
// Text utilities (shared with w5lint's approach).
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string strip_comments_and_literals(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && !(i > 0 && ident_char(in[i - 1]))) {
          // A quote directly after an identifier char is a digit
          // separator (2'000), not a char literal.
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == quote) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

bool word_in(const std::string& text, const std::string& word) {
  for (auto pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !ident_char(text[after]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// Last identifier in `s` (e.g. "const store::Record& rec" -> "rec").
std::string last_ident(const std::string& s) {
  std::size_t e = s.size();
  while (e > 0 && !ident_char(s[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, e - b);
}

// ---------------------------------------------------------------------------
// Symbol graph.
// ---------------------------------------------------------------------------

struct Call {
  std::string name;       // base identifier ("roundtrip")
  std::string qualifier;  // "HttpClient" in HttpClient::roundtrip, "" else
  std::size_t line;       // 1-based
  std::string args;       // argument text, parens stripped
};

struct Param {
  std::string type;
  std::string name;
};

struct Function {
  std::string name;   // "Class::method" or "free_function"
  std::string base;   // "method"
  std::string cls;    // "Class" or ""
  std::string file;   // rel path
  std::size_t line;   // of the body's opening brace
  std::string head;   // text before the parameter list (return type etc.)
  std::vector<Param> params;
  std::vector<std::string> body_lines;  // stripped, body only
  std::size_t body_first_line;          // 1-based line of first body line
  std::vector<Call> calls;

  // Taint state (pass 1).
  std::set<std::string> tainted;           // identifiers carrying record data
  std::map<std::string, std::string> why;  // ident -> provenance note
  bool returns_taint = false;
  bool gated = false;  // consults a declassifier: sanctioned export path
  std::set<std::size_t> leaky_params;      // param index -> reaches a sink
  std::map<std::size_t, std::string> leak_via;  // param index -> chain text

  // Lock state (pass 2).
  std::set<std::string> acquires;  // mutex ids directly guarded here
};

struct MutexDecl {
  std::string id;      // "AuditLog::mutex_"
  std::string member;  // "mutex_"
  std::string file;
  std::size_t line;
};

struct LockEdge {
  std::string from, to;  // mutex ids
  std::string site;      // "file:line (Class::fn)"
};

struct RankEntry {
  int rank = 0;
  std::string id;
  std::string constant;
  std::size_t line = 0;
};

struct ParsedFile {
  std::string rel;
  std::vector<std::string> raw_lines;
  std::vector<std::string> lines;  // stripped
};

class Analyzer {
 public:
  explicit Analyzer(fs::path root) : root_(std::move(root)) {}

  int run(const std::string& lock_order_file,
          const std::string& ranks_header) {
    if (!fs::exists(root_)) {
      std::cerr << "w5flow: no such directory: " << root_ << "\n";
      return 2;
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp")
        paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) parse_file(p);

    build_name_index();
    if (std::getenv("W5FLOW_DEBUG") != nullptr) {
      for (const Function& fn : functions_)
        std::cerr << "fn " << fn.file << ":" << fn.line << " " << fn.name
                  << "\n";
    }
    taint_pass();
    lock_pass(lock_order_file, ranks_header);

    for (const Violation& v : violations_) {
      std::cerr << "w5flow: " << v.path << ":" << v.line << ": [" << v.check
                << "] " << v.message << "\n";
    }
    std::cerr << "w5flow: " << files_.size() << " files, " << functions_.size()
              << " functions, " << mutexes_.size() << " mutexes, "
              << edges_.size() << " lock edges, " << violations_.size()
              << " violation(s), " << suppressed_ << " suppressed\n";
    return violations_.empty() ? 0 : 1;
  }

 private:
  // ---- parsing ------------------------------------------------------------

  void parse_file(const fs::path& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string raw = buffer.str();
    const std::string stripped = strip_comments_and_literals(raw);

    ParsedFile pf;
    pf.rel = fs::relative(path, root_).generic_string();
    {
      std::stringstream ss(raw);
      std::string line;
      while (std::getline(ss, line)) pf.raw_lines.push_back(line);
    }
    {
      std::stringstream ss(stripped);
      std::string line;
      while (std::getline(ss, line)) pf.lines.push_back(line);
    }
    // Preprocessor directives (and their backslash continuations) would
    // pollute statement tracking; blank them. Both arms of an #if stay
    // visible — fine for a scan that wants to see all the code.
    bool continuing = false;
    for (auto& l : pf.lines) {
      const std::string t = trim(l);
      const bool directive = continuing || (!t.empty() && t[0] == '#');
      continuing = directive && !t.empty() && t.back() == '\\';
      if (directive) l.assign(l.size(), ' ');
    }
    std::string text;
    for (const auto& l : pf.lines) {
      text += l;
      text += '\n';
    }
    current_file_ = &pf;
    extract(pf, text);
    current_file_ = nullptr;
    files_.push_back(std::move(pf));
  }

  // Walks the stripped text once: tracks class nesting, finds function
  // bodies and mutex declarations.
  void extract(const ParsedFile& pf, const std::string& text) {
    struct ClassScope {
      std::string name;
      int depth;  // brace depth the class body lives at
    };
    std::vector<ClassScope> classes;
    int depth = 0;
    std::size_t line = 1;
    std::string stmt;           // statement text since last ; { }
    std::size_t stmt_line = 1;  // line the statement started on
    int fn_body_depth = -1;     // depth inside a function body, -1 = none
    std::size_t fn_index = 0;   // index into functions_ of the open fn
    std::string pending_class;  // "class X" seen, waiting for its '{'
    int init_depth = -1;        // depth below a brace initializer, -1 = none

    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\n') {
        ++line;
        if (fn_body_depth < 0 && init_depth < 0) {
          stmt += ' ';
          detect_class(stmt, pending_class);
        }
        continue;
      }
      if (fn_body_depth >= 0) {
        // Inside a function body: just track depth until it closes.
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (depth < fn_body_depth) {
            close_function(fn_index, line);
            fn_body_depth = -1;
            stmt.clear();
            stmt_line = line;
          }
        }
        continue;
      }
      if (init_depth >= 0) {
        // Inside a brace initializer ("util::Mutex mutex_{kFoo, ...}"):
        // the braces belong to the statement, which ends at its ';'.
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (depth == init_depth) {
            init_depth = -1;
            // A true initializer is followed by ';' or ','. Anything
            // else means the heuristic mis-filed a construct (say, an
            // unrecognized function shape) — drop the poisoned
            // statement instead of letting it swallow the rest of the
            // file.
            std::size_t peek = i + 1;
            while (peek < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[peek])) != 0)
              ++peek;
            if (peek >= text.size() ||
                (text[peek] != ';' && text[peek] != ',')) {
              stmt.clear();
              stmt_line = line;
              continue;
            }
          }
        }
        if (stmt.size() < 4096) stmt += c;
        continue;
      }
      if (c == '{') {
        // Order matters: "template <class T> void f() {" must be read as
        // a function, not as class T.
        if (looks_like_function(stmt)) {
          open_function(pf, stmt, stmt_line, line, classes.empty()
                                                       ? std::string{}
                                                       : classes.back().name);
          fn_index = functions_.size() - 1;
          fn_body_depth = depth + 1;
          functions_.back().body_first_line = line;
          pending_class.clear();
        } else if (!pending_class.empty()) {
          classes.push_back({pending_class, depth + 1});
          pending_class.clear();
        } else if (is_scope_open(stmt)) {
          // namespace / extern "C" / bare block: a new scope.
        } else if (!trim(stmt).empty()) {
          // Brace initializer on a declaration: keep the statement going.
          init_depth = depth;
          stmt += c;
          ++depth;
          continue;
        }
        ++depth;
        stmt.clear();
        stmt_line = line;
        continue;
      }
      if (c == '}') {
        --depth;
        while (!classes.empty() && classes.back().depth > depth)
          classes.pop_back();
        stmt.clear();
        stmt_line = line;
        continue;
      }
      if (c == ';') {
        // A full declaration statement: mutex member/global?
        scan_mutex_decl(pf, stmt, stmt_line,
                        classes.empty() ? std::string{} : classes.back().name);
        pending_class.clear();
        stmt.clear();
        stmt_line = line;
        continue;
      }
      if (stmt.empty()) stmt_line = line;
      stmt += c;
      // Record "class X" / "struct X" as a pending scope the moment the
      // name is complete (the '{' may be many tokens away: bases, final).
      if (c == ' ' || c == ':') detect_class(stmt, pending_class);
    }
  }

  // "namespace w5 {", "extern ... {": scopes, not initializers.
  static bool is_scope_open(const std::string& stmt) {
    const std::string t = trim(stmt);
    if (t.empty()) return true;
    return word_in(t, "namespace") || word_in(t, "extern");
  }

  static void detect_class(const std::string& stmt, std::string& pending) {
    // Matches "... class|struct NAME" in the statement buffer; the
    // LATEST keyword wins ("template <class T> struct Foo" names Foo).
    std::size_t best = std::string::npos;
    std::size_t best_kw_len = 0;
    for (const std::string k : {"class ", "struct "}) {
      const auto pos = stmt.rfind(k);
      if (pos == std::string::npos) continue;
      if (pos > 0 && ident_char(stmt[pos - 1])) continue;
      if (best == std::string::npos || pos > best) {
        best = pos;
        best_kw_len = k.size();
      }
    }
    if (best == std::string::npos) return;
    const std::string rest = trim(stmt.substr(best + best_kw_len));
    // The name is the first identifier chain that is not an attribute
    // macro (annotation macros like W5_CAPABILITY(...) may intervene);
    // out-of-line nested definitions ("struct Outer::Inner") name the
    // innermost component.
    std::stringstream ss(rest);
    std::string tok;
    while (ss >> tok) {
      std::string name;
      for (const char ch : tok) {
        if (ident_char(ch) || ch == ':') name += ch;
        else break;
      }
      if (name.empty()) continue;          // "(", ")" from a macro
      while (!name.empty() && name.back() == ':') name.pop_back();
      if (name.empty()) continue;
      if (name.rfind("W5_", 0) == 0 || name == "final" || name == "alignas")
        continue;
      const auto last = name.rfind("::");
      pending = last == std::string::npos ? name : name.substr(last + 2);
      return;
    }
  }

  static bool looks_like_function(const std::string& stmt_in) {
    const std::string stmt = trim(stmt_in);
    if (stmt.empty()) return false;
    // Reject declarations-with-initializers, lambdas, arrays — but not
    // "operator=" / "operator==" definitions.
    int pdepth = 0;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      const char c = stmt[i];
      if (c == '(') ++pdepth;
      if (c == ')') --pdepth;
      if (c == '=' && pdepth == 0) {
        const std::string before = stmt.substr(0, i);
        const bool op = before.size() >= 8 &&
                        before.compare(before.size() - 8, 8, "operator") == 0;
        const char prev = i > 0 ? stmt[i - 1] : '\0';
        const char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
        if (!op && prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
            next != '=')
          return false;
      }
    }
    // Class heads with bases ("class X : public Y") never carry parens
    // before the brace; anything else with no parens isn't a function.
    const auto paren = stmt.find('(');
    if (paren == std::string::npos) return false;
    const std::string before = stmt.substr(0, paren);
    const std::string name = last_ident(before);
    if (name.empty()) return false;
    // "operator=(...)": last_ident skips the '=' and lands on the
    // keyword, but these are functions.
    if (name == "operator") return true;
    if (kKeywords.count(name) != 0) return false;
    if (name.rfind("W5_", 0) == 0) return false;  // annotation macro
    return true;
  }

  void open_function(const ParsedFile& pf, const std::string& stmt,
                     std::size_t stmt_line, std::size_t brace_line,
                     const std::string& enclosing_class) {
    Function fn;
    fn.file = pf.rel;
    fn.line = brace_line;
    const auto paren = stmt.find('(');
    const std::string before = stmt.substr(0, paren);
    fn.base = last_ident(before);
    // Qualified name: "A::b" when written that way, else class scope.
    const auto base_pos = before.rfind(fn.base);
    std::string qual;
    if (base_pos >= 2 && before.compare(base_pos - 2, 2, "::") == 0) {
      std::size_t q = base_pos - 2;
      std::size_t b = q;
      while (b > 0 && (ident_char(before[b - 1]) || before[b - 1] == ':')) --b;
      qual = before.substr(b, q - b);
      const auto last_colon = qual.rfind("::");
      if (last_colon != std::string::npos) qual = qual.substr(last_colon + 2);
    } else if (!enclosing_class.empty()) {
      qual = enclosing_class;
    }
    fn.cls = qual;
    fn.name = qual.empty() ? fn.base : qual + "::" + fn.base;
    fn.head = trim(before.substr(0, before.size() - fn.base.size()));
    // Parameter list: between the first '(' and its matching ')'.
    int pd = 0;
    std::size_t end = paren;
    for (std::size_t i = paren; i < stmt.size(); ++i) {
      if (stmt[i] == '(') ++pd;
      if (stmt[i] == ')' && --pd == 0) {
        end = i;
        break;
      }
    }
    const std::string param_text = stmt.substr(paren + 1, end - paren - 1);
    std::size_t start = 0;
    int d = 0;
    for (std::size_t i = 0; i <= param_text.size(); ++i) {
      const char pc = i < param_text.size() ? param_text[i] : ',';
      if (pc == '(' || pc == '<' || pc == '[') ++d;
      if (pc == ')' || pc == '>' || pc == ']') --d;
      if (pc == ',' && d <= 0) {
        const std::string one = trim(param_text.substr(start, i - start));
        if (!one.empty()) {
          Param p;
          p.name = last_ident(one);
          p.type = one;
          fn.params.push_back(std::move(p));
        }
        start = i + 1;
      }
    }
    (void)stmt_line;
    functions_.push_back(std::move(fn));
  }

  void close_function(std::size_t index, std::size_t last_line) {
    Function& fn = functions_[index];
    // parse_file() points current_file_ at the file being extracted
    // (it is not yet in files_).
    const ParsedFile& pf = *current_file_;
    // Body lines: from the brace line through the closing line.
    for (std::size_t l = fn.line; l <= last_line && l <= pf.lines.size(); ++l)
      fn.body_lines.push_back(pf.lines[l - 1]);
    fn.body_first_line = fn.line;
    extract_calls(fn);
  }

  void extract_calls(Function& fn) {
    for (std::size_t li = 0; li < fn.body_lines.size(); ++li) {
      const std::string& line = fn.body_lines[li];
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (!ident_char(line[i])) continue;
        std::size_t b = i;
        while (i < line.size() && ident_char(line[i])) ++i;
        const std::string tok = line.substr(b, i - b);
        std::size_t after = i;
        while (after < line.size() &&
               std::isspace(static_cast<unsigned char>(line[after])) != 0)
          ++after;
        if (after >= line.size() || line[after] != '(') continue;
        if (kKeywords.count(tok) != 0) continue;
        Call call;
        call.name = tok;
        call.line = fn.body_first_line + li;
        if (b >= 2 && line.compare(b - 2, 2, "::") == 0) {
          std::size_t qe = b - 2;
          std::size_t qb = qe;
          while (qb > 0 && ident_char(line[qb - 1])) --qb;
          call.qualifier = line.substr(qb, qe - qb);
          // "::shutdown(fd)": explicit global scope — an OS call, never
          // a tree function. Mark so resolve() skips it.
          if (call.qualifier.empty()) call.qualifier = "::";
        }
        // Argument text: to the matching ')': single line is enough for
        // taint word-matching; continue across lines for wrapped calls.
        std::string args;
        int d = 0;
        std::size_t lj = li;
        std::size_t pos = after;
        while (lj < fn.body_lines.size()) {
          const std::string& l2 = fn.body_lines[lj];
          for (; pos < l2.size(); ++pos) {
            if (l2[pos] == '(') ++d;
            else if (l2[pos] == ')') {
              --d;
              if (d == 0) break;
            }
            if (d >= 1 && !(l2[pos] == '(' && d == 1)) args += l2[pos];
          }
          if (pos < l2.size()) break;  // matched
          ++lj;
          pos = 0;
          args += ' ';
          if (args.size() > 4096) break;  // degenerate; enough context
        }
        call.args = args;
        fn.calls.push_back(std::move(call));
      }
    }
  }

  void build_name_index() {
    for (std::size_t i = 0; i < functions_.size(); ++i) {
      by_name_[functions_[i].name].push_back(i);
      by_base_[functions_[i].base].push_back(i);
    }
  }

  // Resolves a call to a unique function index, or nullopt.
  std::optional<std::size_t> resolve(const Function& caller,
                                     const Call& call) const {
    if (!call.qualifier.empty()) {
      const auto it = by_name_.find(call.qualifier + "::" + call.name);
      if (it != by_name_.end() && it->second.size() == 1)
        return it->second[0];
      return std::nullopt;
    }
    // Method call on the caller's own class wins.
    if (!caller.cls.empty()) {
      const auto it = by_name_.find(caller.cls + "::" + call.name);
      if (it != by_name_.end() && it->second.size() == 1)
        return it->second[0];
    }
    const auto it = by_base_.find(call.name);
    if (it != by_base_.end() && it->second.size() == 1) return it->second[0];
    return std::nullopt;
  }

  // ---- suppressions -------------------------------------------------------

  const ParsedFile* find_file(const std::string& rel) const {
    for (const auto& f : files_)
      if (f.rel == rel) return &f;
    return nullptr;
  }

  // A finding at `line` is suppressed by a justified marker on the same
  // line or in the contiguous block of comment lines directly above it.
  bool allowed(const std::string& check, const std::string& rel,
               std::size_t line) {
    const ParsedFile* pf = find_file(rel);
    if (pf == nullptr) return false;
    const std::string marker = "w5flow-allow(" + check + "):";
    for (std::size_t l = line; l >= 1; --l) {
      if (l > pf->raw_lines.size()) continue;
      const std::string& raw = pf->raw_lines[l - 1];
      // Above the finding line itself, only comment lines keep the
      // search alive — the marker must sit flush against the site.
      if (l != line && trim(raw).rfind("//", 0) != 0) break;
      const auto pos = raw.find(marker);
      if (pos == std::string::npos) continue;
      if (trim(raw.substr(pos + marker.size())).empty()) {
        report("allow", rel, l,
               "w5flow-allow(" + check +
                   ") needs an in-file justification after the colon");
        return false;
      }
      ++suppressed_;
      return true;
    }
    return false;
  }

  void report(std::string check, const std::string& rel, std::size_t line,
              std::string message) {
    violations_.push_back(
        Violation{std::move(check), rel, line, std::move(message)});
  }

  void report_allowable(const std::string& check, const std::string& rel,
                        std::size_t line, std::string message) {
    if (allowed(check, rel, line)) return;
    report(check, rel, line, std::move(message));
  }

  // ---- pass 1: taint ------------------------------------------------------

  static bool type_is_taint(const std::string& type) {
    return word_in(type, kTaintType);
  }

  static bool has_cleanser(const std::string& text) {
    for (const auto& c : kCleansers)
      if (word_in(text, c)) return true;
    return false;
  }

  void seed_taint(Function& fn) {
    for (const Param& p : fn.params) {
      if (type_is_taint(p.type) && !p.name.empty()) {
        fn.tainted.insert(p.name);
        fn.why[p.name] = "parameter '" + p.name + "' of " + fn.name +
                         " carries store::Record data";
      }
    }
    if (type_is_taint(fn.head)) fn.returns_taint = true;
    for (const Call& c : fn.calls) {
      for (const auto& g : kGateCalls) {
        if (c.name == g) fn.gated = true;
      }
    }
  }

  // One local propagation sweep; returns true if anything changed.
  bool propagate_local(Function& fn) {
    bool changed = false;
    for (std::size_t li = 0; li < fn.body_lines.size(); ++li) {
      const std::string& line = fn.body_lines[li];
      // Local declarations of the taint type.
      if (word_in(line, kTaintType)) {
        // "Record r = ..." / "const Record& r : ..." — take the ident
        // right after the last kTaintType token's type expression.
        const auto pos = line.rfind(kTaintType);
        std::string rest = line.substr(pos + kTaintType.size());
        // Skip template/ref/ptr decoration to the first identifier.
        std::size_t b = 0;
        while (b < rest.size() && !ident_char(rest[b])) {
          // Abort on statement glue: this was a use, not a declaration.
          if (rest[b] == ';' || rest[b] == ',' || rest[b] == ')') break;
          ++b;
        }
        std::size_t e = b;
        while (e < rest.size() && ident_char(rest[e])) ++e;
        const std::string name = rest.substr(b, e - b);
        if (!name.empty() && kKeywords.count(name) == 0 &&
            fn.tainted.insert(name).second) {
          fn.why[name] = "'" + name + "' declared as store::Record in " +
                         fn.name;
          changed = true;
        }
      }
      // Assignment / initialization from a tainted RHS.
      const auto eq = find_assign(line);
      if (eq != std::string::npos) {
        const std::string lhs = last_ident(line.substr(0, eq));
        const std::string rhs = line.substr(eq + 1);
        if (!lhs.empty() && kKeywords.count(lhs) == 0 &&
            fn.tainted.count(lhs) == 0 && rhs_tainted(fn, rhs)) {
          fn.tainted.insert(lhs);
          fn.why[lhs] = "'" + lhs + "' in " + fn.name + " <- " +
                        trim(rhs).substr(0, 48);
          changed = true;
        }
      }
      // Range-for over a tainted container: for (auto& x : tainted).
      const auto colon = range_for_colon(line);
      if (colon != std::string::npos) {
        const std::string var = last_ident(line.substr(0, colon));
        const std::string range = line.substr(colon + 1);
        if (!var.empty() && fn.tainted.count(var) == 0 &&
            rhs_tainted(fn, range)) {
          fn.tainted.insert(var);
          fn.why[var] = "'" + var + "' iterates record data in " + fn.name;
          changed = true;
        }
      }
      // Return statements.
      if (!fn.returns_taint) {
        const auto r = line.find("return ");
        if (r != std::string::npos &&
            (r == 0 || !ident_char(line[r == 0 ? 0 : r - 1])) &&
            rhs_tainted(fn, line.substr(r + 7))) {
          fn.returns_taint = true;
          changed = true;
        }
      }
    }
    return changed;
  }

  static std::size_t find_assign(const std::string& line) {
    int d = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '(' || c == '[' || c == '{') ++d;
      if (c == ')' || c == ']' || c == '}') --d;
      if (c == '=' && d == 0) {
        const char prev = i > 0 ? line[i - 1] : '\0';
        const char next = i + 1 < line.size() ? line[i + 1] : '\0';
        if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
            prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
            prev == '&' || prev == '|' || next == '=')
          continue;
        return i;
      }
    }
    return std::string::npos;
  }

  static std::size_t range_for_colon(const std::string& line) {
    const auto f = line.find("for ");
    const auto f2 = line.find("for(");
    if (f == std::string::npos && f2 == std::string::npos)
      return std::string::npos;
    int d = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '(') ++d;
      if (c == ')') --d;
      if (c == ':' && d == 1) {
        if (i > 0 && line[i - 1] == ':') return std::string::npos;
        if (i + 1 < line.size() && line[i + 1] == ':')
          return std::string::npos;
        return i;
      }
    }
    return std::string::npos;
  }

  // Does this expression carry taint: a tainted identifier, or a call to
  // a taint-returning function (and no cleanser wrapping)?
  bool rhs_tainted(const Function& fn, const std::string& expr) const {
    if (has_cleanser(expr)) return false;
    for (const auto& t : fn.tainted)
      if (word_in(expr, t)) return true;
    // Calls to taint-returning functions. An unresolvable base name
    // (many overloads/classes) still taints when every candidate agrees
    // — e.g. get() on both store flavors returns a Record.
    for (const Call& c : fn.calls) {
      if (!word_in(expr, c.name)) continue;
      const auto callee = resolve(fn, c);
      if (callee) {
        if (functions_[*callee].returns_taint) return true;
        continue;
      }
      const auto it = by_base_.find(c.name);
      if (it == by_base_.end() || it->second.empty()) continue;
      bool all = true;
      for (const std::size_t idx : it->second)
        if (!functions_[idx].returns_taint) all = false;
      if (all) return true;
    }
    return false;
  }

  void taint_pass() {
    for (Function& fn : functions_) seed_taint(fn);
    // Global fixpoint: local propagation depends on callee summaries
    // (returns_taint), which depend on local propagation.
    for (int round = 0; round < 8; ++round) {
      bool changed = false;
      for (Function& fn : functions_)
        while (propagate_local(fn)) changed = true;
      if (!changed) break;
    }
    // Leaky-param summaries: param name reaches a sink argument, or is
    // handed to a callee position that does.
    for (int round = 0; round < 8; ++round) {
      bool changed = false;
      for (Function& fn : functions_) {
        for (std::size_t pi = 0; pi < fn.params.size(); ++pi) {
          if (fn.params[pi].name.empty() ||
              fn.leaky_params.count(pi) != 0)
            continue;
          const std::string& pname = fn.params[pi].name;
          for (const Call& c : fn.calls) {
            if (is_sink(c.name)) {
              if (word_in(c.args, pname) && !has_cleanser(c.args)) {
                fn.leaky_params.insert(pi);
                fn.leak_via[pi] = fn.name + " -> " + c.name + "() at " +
                                  fn.file + ":" + std::to_string(c.line);
                changed = true;
                break;
              }
              continue;
            }
            const auto callee = resolve(fn, c);
            if (!callee) continue;
            const Function& g = functions_[*callee];
            if (g.leaky_params.empty()) continue;
            const auto positions = arg_positions(c.args, pname);
            for (const std::size_t ai : positions) {
              if (g.leaky_params.count(ai) != 0) {
                fn.leaky_params.insert(pi);
                fn.leak_via[pi] =
                    fn.name + " -> " + g.leak_via.at(ai);
                changed = true;
                break;
              }
            }
            if (fn.leaky_params.count(pi) != 0) break;
          }
        }
      }
      if (!changed) break;
    }
    // Violations: tainted data meeting a sink call, directly or through
    // a leaky callee. Gated functions are sanctioned export paths.
    for (Function& fn : functions_) {
      if (fn.gated) continue;
      for (const Call& c : fn.calls) {
        if (has_cleanser(c.args)) continue;
        const std::string hit = first_tainted_in(fn, c.args);
        if (hit.empty()) continue;
        if (is_sink(c.name)) {
          report_allowable(
              "taint", fn.file, c.line,
              "record data reaches sink " + c.name + "() uncleansed; " +
                  chain_for(fn, hit) + " -> " + c.name + "()");
          continue;
        }
        const auto callee = resolve(fn, c);
        if (!callee) continue;
        const Function& g = functions_[*callee];
        if (g.gated) continue;
        for (const std::size_t ai : arg_positions(c.args, hit)) {
          if (g.leaky_params.count(ai) != 0) {
            report_allowable(
                "taint", fn.file, c.line,
                "record data reaches a sink through the call chain " +
                    chain_for(fn, hit) + " -> " + g.leak_via.at(ai));
            break;
          }
        }
      }
    }
  }

  static bool is_sink(const std::string& name) {
    return std::find(kSinkCalls.begin(), kSinkCalls.end(), name) !=
           kSinkCalls.end();
  }

  std::string first_tainted_in(const Function& fn,
                               const std::string& args) const {
    for (const auto& t : fn.tainted)
      if (word_in(args, t)) return t;
    return {};
  }

  std::string chain_for(const Function& fn, const std::string& ident) const {
    const auto it = fn.why.find(ident);
    const std::string origin =
        it != fn.why.end() ? it->second : "'" + ident + "'";
    return "source: " + origin;
  }

  // Which zero-based argument positions of `args` mention `ident`.
  static std::vector<std::size_t> arg_positions(const std::string& args,
                                                const std::string& ident) {
    std::vector<std::size_t> out;
    std::size_t start = 0, index = 0;
    int d = 0;
    for (std::size_t i = 0; i <= args.size(); ++i) {
      const char c = i < args.size() ? args[i] : ',';
      if (c == '(' || c == '[' || c == '{' || c == '<') ++d;
      if (c == ')' || c == ']' || c == '}' || c == '>') --d;
      if (c == ',' && d <= 0) {
        if (word_in(args.substr(start, i - start), ident)) out.push_back(index);
        ++index;
        start = i + 1;
      }
    }
    return out;
  }

  // ---- pass 2: locks ------------------------------------------------------

  void scan_mutex_decl(const ParsedFile& pf, const std::string& stmt_in,
                       std::size_t line, const std::string& cls) {
    const std::string stmt = trim(stmt_in);
    if (stmt.empty()) return;
    const bool is_util_file = pf.rel.rfind("util/", 0) == 0;
    // Raw std mutexes are invisible to the witness and the registry:
    // only the annotated wrappers may hold platform locks.
    if (!is_util_file) {
      for (const std::string raw_type : {"std::mutex", "std::shared_mutex",
                                         "std::recursive_mutex"}) {
        const auto pos = stmt.find(raw_type + " ");
        if (pos != std::string::npos && stmt.find('(') == std::string::npos &&
            stmt.find('&') == std::string::npos) {
          report_allowable("lockdecl", pf.rel, line,
                           raw_type + " declared outside util/ — locks use "
                           "the ranked util::Mutex/SharedMutex wrappers "
                           "(DESIGN.md §19)");
        }
      }
    }
    // util::Mutex / util::SharedMutex declarations (plain or vector-of).
    static const std::vector<std::string> kTypes = {
        "util::SharedMutex", "util::Mutex", "SharedMutex", "Mutex"};
    for (const auto& type : kTypes) {
      const auto pos = find_type(stmt, type);
      if (pos == std::string::npos) continue;
      // Skip refs/pointers/returns: "util::Mutex& tree_mutex()".
      std::string rest = stmt.substr(pos + type.size());
      if (!rest.empty() && (rest[0] == '&' || rest[0] == '*')) return;
      if (rest.rfind("> ", 0) == 0) rest = rest.substr(1);  // vector<...>
      const std::string name = first_ident(rest);
      if (name.empty()) return;
      // A declaration, not a guard/param/expression: name followed by
      // end, '{' (brace-init) or '=' — guards were filtered by '('.
      const std::string after = trim(rest.substr(rest.find(name) + name.size()));
      if (!after.empty() && after[0] == '(') return;
      MutexDecl m;
      m.member = name;
      std::string owner = cls;
      if (owner.empty()) {
        std::string stem = fs::path(pf.rel).stem().string();
        owner = stem;
      }
      m.id = owner + "::" + name;
      m.file = pf.rel;
      m.line = line;
      mutexes_.push_back(std::move(m));
      return;
    }
  }

  // Position of `type` used as a declaration's type (not part of a
  // longer qualified name).
  static std::size_t find_type(const std::string& stmt,
                               const std::string& type) {
    for (auto pos = stmt.find(type); pos != std::string::npos;
         pos = stmt.find(type, pos + 1)) {
      const bool left_ok =
          pos == 0 || (!ident_char(stmt[pos - 1]) && stmt[pos - 1] != ':');
      const auto after = pos + type.size();
      const bool right_ok = after >= stmt.size() || !ident_char(stmt[after]);
      if (left_ok && right_ok) return pos;
    }
    return std::string::npos;
  }

  static std::string first_ident(const std::string& s) {
    std::size_t b = 0;
    while (b < s.size() && !ident_char(s[b])) {
      if (s[b] == ';' || s[b] == '(' ) return {};
      ++b;
    }
    std::size_t e = b;
    while (e < s.size() && ident_char(s[e])) ++e;
    return s.substr(b, e - b);
  }

  // Resolve a guard's mutex expression to a declared mutex id.
  std::optional<std::string> resolve_mutex(const Function& fn,
                                           std::string expr) const {
    expr = trim(expr);
    // Strip indexing: slot_mutexes_[slot] -> slot_mutexes_.
    const auto bracket = expr.find('[');
    if (bracket != std::string::npos) expr = expr.substr(0, bracket);
    if (!expr.empty() && expr.back() == ')') return std::nullopt;  // accessor
    const std::string member = last_ident(expr);
    if (member.empty()) return std::nullopt;
    std::vector<const MutexDecl*> candidates;
    for (const auto& m : mutexes_)
      if (m.member == member) candidates.push_back(&m);
    if (candidates.empty()) return std::nullopt;
    if (!fn.cls.empty()) {
      for (const auto* m : candidates)
        if (m->id == fn.cls + "::" + member) return m->id;
    }
    // File-scoped globals resolve within their own file.
    for (const auto* m : candidates)
      if (m->file == fn.file &&
          m->id == fs::path(fn.file).stem().string() + "::" + member)
        return m->id;
    if (candidates.size() == 1) return candidates[0]->id;
    return std::nullopt;
  }

  struct Live {
    std::string id;   // mutex id, or "<unresolved>"
    std::string var;  // the guard variable's name ("" for temporaries)
    int depth;        // brace depth the guard was constructed at
    std::size_t line;
  };

  // Walks one function body tracking the live-guard stack, including
  // early `guard.unlock()` / re-`guard.lock()` transitions (the
  // compactor drops its lock before calling checkpoint()). Invokes
  // on_acquire(id, held-before, line) for each guard acquisition and
  // on_call(name, qualifier, held, line) for each plain call made while
  // at least one guard is live.
  void walk_body(
      Function& fn,
      const std::function<void(const std::string&, const std::vector<Live>&,
                               std::size_t)>& on_acquire,
      const std::function<void(const std::string&, const std::string&,
                               const std::vector<Live>&, std::size_t)>&
          on_call) {
    static const std::vector<std::string> kGuards = {
        "MutexLock", "UniqueLock", "ReadLock", "WriteLock"};
    std::vector<Live> held;
    std::map<std::string, std::string> unlocked;  // var -> mutex id
    int depth = 0;
    for (std::size_t li = 0; li < fn.body_lines.size(); ++li) {
      const std::string& line = fn.body_lines[li];
      const std::size_t lineno = fn.body_first_line + li;
      for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          while (!held.empty() && held.back().depth > depth) held.pop_back();
        }
        if (!ident_char(c)) continue;
        std::size_t b = i;
        while (i < line.size() && ident_char(line[i])) ++i;
        const std::string tok = line.substr(b, i - b);
        if (std::find(kGuards.begin(), kGuards.end(), tok) != kGuards.end()) {
          // "util::MutexLock name(expr);" — the mutex expr is inside
          // the parens/braces after the variable name.
          std::size_t p = i;
          while (p < line.size() && line[p] != '(' && line[p] != '{' &&
                 line[p] != ';')
            ++p;
          if (p >= line.size() || line[p] == ';') continue;
          const char open = line[p];
          const char close = open == '(' ? ')' : '}';
          int d = 0;
          std::size_t q = p;
          for (; q < line.size(); ++q) {
            if (line[q] == open) ++d;
            if (line[q] == close && --d == 0) break;
          }
          if (q >= line.size()) continue;
          const auto id = resolve_mutex(fn, line.substr(p + 1, q - p - 1));
          if (id) on_acquire(*id, held, lineno);
          held.push_back(Live{id ? *id : std::string{"<unresolved>"},
                              trim(line.substr(i, p - i)), depth, lineno});
          continue;
        }
        // guard.unlock() / guard.lock(): early release and re-acquire.
        if ((tok == "unlock" || tok == "lock") && b >= 1 &&
            line[b - 1] == '.') {
          std::size_t ve = b - 1, vb = ve;
          while (vb > 0 && ident_char(line[vb - 1])) --vb;
          const std::string var = line.substr(vb, ve - vb);
          if (tok == "unlock") {
            for (std::size_t h = held.size(); h-- > 0;) {
              if (held[h].var == var && !var.empty()) {
                unlocked[var] = held[h].id;
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
                break;
              }
            }
          } else if (const auto uit = unlocked.find(var);
                     uit != unlocked.end()) {
            if (uit->second != "<unresolved>")
              on_acquire(uit->second, held, lineno);
            held.push_back(Live{uit->second, var, depth, lineno});
          }
          continue;
        }
        // A plain call while guards are held.
        if (held.empty()) continue;
        std::size_t after = i;
        while (after < line.size() &&
               std::isspace(static_cast<unsigned char>(line[after])) != 0)
          ++after;
        if (after >= line.size() || line[after] != '(') continue;
        if (kKeywords.count(tok) != 0) continue;
        std::string qualifier;
        if (b >= 2 && line.compare(b - 2, 2, "::") == 0) {
          std::size_t qe = b - 2, qb = qe;
          while (qb > 0 && ident_char(line[qb - 1])) --qb;
          qualifier = line.substr(qb, qe - qb);
          if (qualifier.empty()) qualifier = "::";  // global scope: OS call
        }
        on_call(tok, qualifier, held, lineno);
      }
    }
  }

  void lock_pass(const std::string& lock_order_file,
                 const std::string& ranks_header) {
    // Phase A: guard sites — direct acquisition sets + intra-function
    // nesting edges.
    for (Function& fn : functions_) {
      walk_body(
          fn,
          [&](const std::string& id, const std::vector<Live>& held,
              std::size_t lineno) {
            fn.acquires.insert(id);
            for (const Live& outer : held) {
              if (outer.id == id || outer.id == "<unresolved>") continue;
              add_edge(outer.id, id,
                       fn.file + ":" + std::to_string(lineno) + " (" +
                           fn.name + ")");
            }
          },
          [](const std::string&, const std::string&, const std::vector<Live>&,
             std::size_t) {});
    }
    // Transitive acquisition summaries for interprocedural edges.
    std::map<std::string, std::set<std::string>> may_acquire;
    for (const Function& fn : functions_)
      may_acquire[fn.name].insert(fn.acquires.begin(), fn.acquires.end());
    for (int round = 0; round < 16; ++round) {
      bool changed = false;
      for (const Function& fn : functions_) {
        auto& mine = may_acquire[fn.name];
        for (const Call& c : fn.calls) {
          const auto callee = resolve(fn, c);
          if (!callee) continue;
          for (const auto& id : may_acquire[functions_[*callee].name])
            if (mine.insert(id).second) changed = true;
        }
      }
      if (!changed) break;
    }
    // Phase B: calls made while a guard is live — edge from each held
    // mutex to everything the callee may (transitively) acquire.
    for (Function& fn : functions_) {
      walk_body(
          fn,
          [](const std::string&, const std::vector<Live>&, std::size_t) {},
          [&](const std::string& name, const std::string& qualifier,
              const std::vector<Live>& held, std::size_t lineno) {
            Call probe;
            probe.name = name;
            probe.qualifier = qualifier;
            const auto callee = resolve(fn, probe);
            if (!callee) return;
            const auto it = may_acquire.find(functions_[*callee].name);
            if (it == may_acquire.end()) return;
            for (const auto& inner : it->second) {
              for (const Live& outer : held) {
                if (outer.id == inner || outer.id == "<unresolved>") continue;
                add_edge(outer.id, inner,
                         fn.file + ":" + std::to_string(lineno) + " (" +
                             fn.name + " -> " + functions_[*callee].name +
                             ")");
              }
            }
          });
    }

    scan_native_optouts();
    check_cycles();
    if (!lock_order_file.empty()) check_registry(lock_order_file, ranks_header);
  }

  // std::lock_guard/unique_lock/scoped_lock over `.native()` handles
  // bypass both the TSA annotations and the runtime witness — each such
  // site must say why (the documented opt-outs: registry moves, the
  // all-shards load sweep).
  void scan_native_optouts() {
    for (const auto& pf : files_) {
      if (pf.rel.rfind("util/", 0) == 0) continue;
      for (std::size_t l = 0; l < pf.lines.size(); ++l) {
        const std::string& line = pf.lines[l];
        if (line.find("native()") == std::string::npos) continue;
        const bool std_lock = line.find("std::unique_lock") !=
                                  std::string::npos ||
                              line.find("std::scoped_lock") !=
                                  std::string::npos ||
                              line.find("std::lock_guard") !=
                                  std::string::npos;
        if (!std_lock) continue;
        report_allowable(
            "native", pf.rel, l + 1,
            "std lock over native() bypasses the lock witness — justify "
            "with // w5flow-allow(native): <why>");
      }
    }
  }

  void add_edge(const std::string& from, const std::string& to,
                std::string site) {
    if (from == "<unresolved>" || to == "<unresolved>") return;
    for (const auto& e : edges_)
      if (e.from == from && e.to == to) return;
    edges_.push_back(LockEdge{from, to, std::move(site)});
  }

  void check_cycles() {
    std::map<std::string, std::vector<const LockEdge*>> adj;
    for (const auto& e : edges_) adj[e.from].push_back(&e);
    std::set<std::string> done;
    std::vector<const LockEdge*> path;
    std::set<std::string> on_path;
    // Iterative DFS with an explicit edge stack.
    std::function<bool(const std::string&)> dfs =
        [&](const std::string& node) -> bool {
      on_path.insert(node);
      for (const LockEdge* e : adj[node]) {
        if (on_path.count(e->to) != 0) {
          // Cycle: trim the path to the repeated node.
          std::string msg = "lock-acquisition cycle: ";
          bool in_cycle = false;
          for (const LockEdge* pe : path) {
            if (pe->from == e->to) in_cycle = true;
            if (in_cycle) msg += pe->from + " -> ";
          }
          msg += e->from + " -> " + e->to;
          msg += "; edges: ";
          in_cycle = false;
          for (const LockEdge* pe : path) {
            if (pe->from == e->to) in_cycle = true;
            if (in_cycle) msg += "[" + pe->site + "] ";
          }
          msg += "[" + e->site + "]";
          report("lockcycle", root_rel(), 0, msg);
          return true;
        }
        if (done.count(e->to) == 0) {
          path.push_back(e);
          if (dfs(e->to)) return true;
          path.pop_back();
        }
      }
      on_path.erase(node);
      done.insert(node);
      return false;
    };
    std::set<std::string> nodes;
    for (const auto& e : edges_) {
      nodes.insert(e.from);
      nodes.insert(e.to);
    }
    for (const auto& n : nodes) {
      if (done.count(n) == 0 && dfs(n)) return;  // first cycle is enough
    }
  }

  std::string root_rel() const { return "(graph)"; }

  void check_registry(const std::string& lock_order_file,
                      const std::string& ranks_header) {
    std::ifstream in(lock_order_file);
    if (!in) {
      report("lockrank", lock_order_file, 0, "cannot read lock-order file");
      return;
    }
    std::vector<RankEntry> entries;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::stringstream ss(line);
      RankEntry e;
      if (ss >> e.rank >> e.id >> e.constant) {
        e.line = lineno;
        entries.push_back(e);
      }
    }
    const std::string order_rel = lock_order_file;
    std::map<std::string, const RankEntry*> by_id;
    std::map<int, const RankEntry*> by_rank;
    for (const auto& e : entries) {
      if (by_id.count(e.id) != 0) {
        report("lockrank", order_rel, e.line, "duplicate entry for " + e.id);
        continue;
      }
      by_id[e.id] = &e;
      if (by_rank.count(e.rank) != 0) {
        report("lockrank", order_rel, e.line,
               "rank " + std::to_string(e.rank) + " assigned to both " +
                   by_rank[e.rank]->id + " and " + e.id +
                   " — ranks are a total order over lock classes");
      } else {
        by_rank[e.rank] = &e;
      }
    }
    // Every declared mutex has an entry, and its declaring file names the
    // registry constant (so the runtime rank cannot drift from the doc).
    std::set<std::string> seen_ids;
    for (const auto& m : mutexes_) {
      seen_ids.insert(m.id);
      const auto it = by_id.find(m.id);
      if (it == by_id.end()) {
        report_allowable("lockrank", m.file, m.line,
                         m.id + " has no rank in " + order_rel +
                             " — every mutex in src/ is ranked (DESIGN.md "
                             "§19)");
        continue;
      }
      if (!file_mentions_constant(m.file, it->second->constant)) {
        report_allowable(
            "lockrank", m.file, m.line,
            m.id + " must be constructed with util::lockrank::" +
                it->second->constant + " (per " + order_rel + ")");
      }
    }
    for (const auto& e : entries) {
      if (seen_ids.count(e.id) == 0) {
        report("lockrank", order_rel, e.line,
               "stale entry: no mutex named " + e.id + " in the tree");
      }
    }
    // Cross-check the runtime constants header.
    std::ifstream hdr(ranks_header);
    if (!hdr) {
      report("lockrank", ranks_header, 0, "cannot read ranks header");
      return;
    }
    std::map<std::string, int> header_ranks;
    lineno = 0;
    while (std::getline(hdr, line)) {
      ++lineno;
      const auto pos = line.find("inline constexpr int k");
      if (pos == std::string::npos) continue;
      std::stringstream ss(line.substr(pos + 21));
      std::string name, eq;
      int value = 0;
      if (ss >> name >> eq >> value && eq == "=") header_ranks[name] = value;
    }
    for (const auto& e : entries) {
      const auto it = header_ranks.find(e.constant);
      if (it == header_ranks.end()) {
        report("lockrank", ranks_header, 0,
               "registry constant " + e.constant + " (for " + e.id +
                   ") missing from util/lock_ranks.h");
      } else if (it->second != e.rank) {
        report("lockrank", ranks_header, 0,
               e.constant + " is " + std::to_string(it->second) +
                   " in util/lock_ranks.h but " + std::to_string(e.rank) +
                   " in " + order_rel);
      }
    }
    for (const auto& [name, value] : header_ranks) {
      (void)value;
      bool found = false;
      for (const auto& e : entries)
        if (e.constant == name) found = true;
      if (!found) {
        report("lockrank", ranks_header, 0,
               "util/lock_ranks.h constant " + name + " has no entry in " +
                   order_rel);
      }
    }
    // Edges must go up in rank.
    for (const auto& e : edges_) {
      const auto fi = by_id.find(e.from);
      const auto ti = by_id.find(e.to);
      if (fi == by_id.end() || ti == by_id.end()) continue;
      if (fi->second->rank > ti->second->rank) {
        report("lockorder", order_rel, ti->second->line,
               "acquiring " + e.to + " (rank " +
                   std::to_string(ti->second->rank) + ") while holding " +
                   e.from + " (rank " + std::to_string(fi->second->rank) +
                   ") inverts the declared order; site: " + e.site);
      }
    }
  }

  bool file_mentions_constant(const std::string& rel,
                              const std::string& constant) const {
    // The declaring file, or its header/source sibling (vector-of-mutex
    // ranks are applied in the constructor body).
    const std::string stem = fs::path(rel).stem().string();
    for (const auto& f : files_) {
      if (fs::path(f.rel).stem().string() != stem) continue;
      for (const auto& l : f.lines)
        if (l.find(constant) != std::string::npos) return true;
    }
    return false;
  }

  fs::path root_;
  std::vector<ParsedFile> files_;
  const ParsedFile* current_file_ = nullptr;
  std::vector<Function> functions_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::string, std::vector<std::size_t>> by_base_;
  std::vector<MutexDecl> mutexes_;
  std::vector<LockEdge> edges_;
  std::vector<Violation> violations_;
  std::size_t suppressed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string root, lock_order, ranks_header;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--lock-order") {
      if (i + 1 >= args.size()) {
        std::cerr << "w5flow: --lock-order needs a file\n";
        return 2;
      }
      lock_order = args[++i];
    } else if (args[i] == "--ranks-header") {
      if (i + 1 >= args.size()) {
        std::cerr << "w5flow: --ranks-header needs a file\n";
        return 2;
      }
      ranks_header = args[++i];
    } else if (root.empty()) {
      root = args[i];
    } else {
      std::cerr << "w5flow: unexpected argument '" << args[i] << "'\n";
      return 2;
    }
  }
  if (root.empty()) {
    std::cerr << "usage: w5flow <src-root> [--lock-order <file>] "
                 "[--ranks-header <file>]\n";
    return 2;
  }
  if (!lock_order.empty() && ranks_header.empty())
    ranks_header = root + "/util/lock_ranks.h";
  Analyzer analyzer{fs::path(root)};
  return analyzer.run(lock_order, ranks_header);
}
