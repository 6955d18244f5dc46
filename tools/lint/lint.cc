#include "tools/lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace flywheel::lint {

namespace {

// --------------------------------------------------------------- text prep

/** `// lint: kind(reason)` parsed out of a comment. */
struct Annotation
{
    int line = 0;
    std::string kind;
    std::string reason;
    bool standalone = false;  ///< comment-only line: covers the next line
};

/**
 * Blank comments, string/char literals and preprocessor lines with
 * spaces (newlines kept, so offsets map 1:1 to the original and line
 * numbers survive).  Preprocessor lines (with their continuations)
 * are returned separately for the hygiene checker; annotations are
 * parsed from comments before they are erased.
 */
struct CleanSource
{
    std::string code;
    std::vector<std::pair<int, std::string>> preprocessor;
    std::vector<Annotation> notes;
};

void
parseAnnotation(const std::string &comment, int line, bool standalone,
                std::vector<Annotation> *notes)
{
    const std::string tag = "lint:";
    std::size_t at = comment.find(tag);
    if (at == std::string::npos)
        return;
    std::size_t p = at + tag.size();
    while (p < comment.size() && std::isspace((unsigned char)comment[p]))
        ++p;
    std::size_t kind_start = p;
    while (p < comment.size() &&
           (std::isalnum((unsigned char)comment[p]) || comment[p] == '-'))
        ++p;
    Annotation a;
    a.line = line;
    a.kind = comment.substr(kind_start, p - kind_start);
    a.standalone = standalone;
    if (p < comment.size() && comment[p] == '(') {
        std::size_t close = comment.find(')', p);
        if (close != std::string::npos)
            a.reason = comment.substr(p + 1, close - p - 1);
    }
    if (!a.kind.empty())
        notes->push_back(a);
}

CleanSource
cleanSource(const std::string &text)
{
    CleanSource out;
    out.code.assign(text.size(), ' ');
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == '\n')
            out.code[i] = '\n';

    enum class St { Code, Line, Block, Str, Chr, Pre };
    St st = St::Code;
    int line = 1;
    bool line_had_code = false;    // non-ws code before current comment
    std::string pending;           // text of current comment/pre line

    auto flushComment = [&](int at_line) {
        parseAnnotation(pending, at_line, !line_had_code, &out.notes);
        pending.clear();
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                pending.clear();
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                pending.clear();
                ++i;
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                st = St::Chr;
            } else if (c == '#' && !line_had_code) {
                st = St::Pre;
                out.preprocessor.emplace_back(line, std::string());
            } else {
                out.code[i] = c;
                if (!std::isspace((unsigned char)c))
                    line_had_code = true;
            }
            break;
        case St::Line:
            if (c == '\n') {
                flushComment(line);
                st = St::Code;
            } else {
                pending += c;
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                flushComment(line);
                st = St::Code;
                ++i;
            } else {
                if (c != '\n')
                    pending += c;
                else
                    pending += ' ';
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0')
                ++i;
            else if (c == '"')
                st = St::Code;
            break;
        case St::Chr:
            if (c == '\\' && n != '\0')
                ++i;
            else if (c == '\'')
                st = St::Code;
            break;
        case St::Pre:
            if (c == '\n') {
                // Continuation lines stay part of the directive.
                if (i > 0 && text[i - 1] != '\\')
                    st = St::Code;
                else
                    out.preprocessor.back().second += ' ';
            } else if (c == '/' && n == '/') {
                // Trailing comment on a directive may hold annotations.
                std::size_t eol = text.find('\n', i);
                if (eol == std::string::npos)
                    eol = text.size();
                parseAnnotation(text.substr(i, eol - i), line, false,
                                &out.notes);
                i = eol - 1;
            } else {
                out.preprocessor.back().second += c;
            }
            break;
        }
        if (c == '\n') {
            ++line;
            line_had_code = false;
        }
    }
    if (st == St::Line || st == St::Block)
        flushComment(line);
    return out;
}

// ---------------------------------------------------------------- tokens

struct Token
{
    std::string text;
    int line = 0;
    bool ident = false;
};

std::vector<Token>
tokenize(const std::string &code, std::size_t begin, std::size_t end)
{
    std::vector<Token> out;
    int line = 1;
    for (std::size_t i = 0; i < begin; ++i)
        if (code[i] == '\n')
            ++line;
    for (std::size_t i = begin; i < end;) {
        char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace((unsigned char)c)) {
            ++i;
            continue;
        }
        if (std::isalpha((unsigned char)c) || c == '_') {
            std::size_t j = i;
            while (j < end && (std::isalnum((unsigned char)code[j]) ||
                               code[j] == '_'))
                ++j;
            out.push_back({code.substr(i, j - i), line, true});
            i = j;
            continue;
        }
        if (std::isdigit((unsigned char)c)) {
            std::size_t j = i;
            while (j < end && (std::isalnum((unsigned char)code[j]) ||
                               code[j] == '.' || code[j] == '\''))
                ++j;
            out.push_back({code.substr(i, j - i), line, false});
            i = j;
            continue;
        }
        if (c == ':' && i + 1 < end && code[i + 1] == ':') {
            out.push_back({"::", line, false});
            i += 2;
            continue;
        }
        out.push_back({std::string(1, c), line, false});
        ++i;
    }
    return out;
}

/** Whole-word presence of @p ident among @p tokens. */
bool
usesIdent(const std::vector<Token> &tokens, const std::string &ident)
{
    for (const Token &t : tokens)
        if (t.ident && t.text == ident)
            return true;
    return false;
}

// ------------------------------------------------------------- structure

struct Field
{
    std::string name;
    std::string type;  ///< whitespace-joined type tokens
    int line = 0;
};

struct Method
{
    std::string name;
    std::string params;  ///< parameter list text
    int line = 0;
    bool hasBody = false;
    std::vector<Token> body;
};

struct ClassInfo
{
    std::string name;
    int line = 0;
    std::vector<Field> fields;
    std::vector<Method> methods;
};

struct OutOfLineBody
{
    std::string cls;
    std::string method;
    std::string params;
    int line = 0;
    std::vector<Token> body;
};

struct ParsedFile
{
    std::string path;
    std::string raw;
    CleanSource clean;
    std::vector<Token> tokens;
    std::vector<ClassInfo> classes;
    std::vector<OutOfLineBody> outOfLine;
};

/** Index of the token matching the opener at @p open (same kind). */
std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open,
           const char *opener, const char *closer)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == opener)
            ++depth;
        else if (toks[i].text == closer && --depth == 0)
            return i;
    }
    return toks.size();
}

std::string
joinTokens(const std::vector<Token> &toks, std::size_t begin,
           std::size_t end)
{
    std::string out;
    for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += toks[i].text;
    }
    return out;
}

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "const",    "constexpr", "static",   "mutable",  "volatile",
        "inline",   "virtual",   "explicit", "unsigned", "signed",
        "struct",   "class",     "typename", "override", "final",
        "noexcept", "default",   "delete",   "return",   "if",
        "else",     "for",       "while",    "operator", "using",
        "typedef",  "friend",    "public",   "private",  "protected",
        "template", "enum",      "namespace"};
    return kw.count(t) != 0;
}

class StructureParser
{
  public:
    explicit StructureParser(ParsedFile *file) : f_(*file) {}

    void
    run()
    {
        parseScope(0, f_.tokens.size());
    }

  private:
    ParsedFile &f_;

    /** Parse namespace-level tokens in [begin, end). */
    void
    parseScope(std::size_t begin, std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        std::size_t i = begin;
        while (i < end) {
            const std::string &tx = t[i].text;
            if (tx == "namespace") {
                std::size_t j = i + 1;
                while (j < end && t[j].text != "{" && t[j].text != ";")
                    ++j;
                if (j < end && t[j].text == "{") {
                    std::size_t close = matchBrace(t, j, "{", "}");
                    parseScope(j + 1, close);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if (tx == "template") {
                i = skipTemplateHeader(i, end);
                continue;
            }
            if (tx == "class" || tx == "struct") {
                i = parseClassOrSkip(i, end);
                continue;
            }
            i = parseFreeStatement(i, end);
        }
    }

    std::size_t
    skipTemplateHeader(std::size_t i, std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        ++i;  // template
        if (i < end && t[i].text == "<") {
            int depth = 0;
            for (; i < end; ++i) {
                if (t[i].text == "<")
                    ++depth;
                else if (t[i].text == ">" && --depth == 0)
                    return i + 1;
            }
        }
        return i;
    }

    /**
     * At `class`/`struct`: parse a definition (returns past the
     * closing `};`) or skip a forward declaration / elaborated type.
     */
    std::size_t
    parseClassOrSkip(std::size_t i, std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        std::size_t j = i + 1;
        // [[attributes]] / alignas(..) between keyword and name.
        std::string name;
        if (j < end && t[j].ident) {
            name = t[j].text;
            ++j;
        }
        // Definition iff `{` comes before any `;` (skipping a base
        // clause after `:`).
        std::size_t k = j;
        while (k < end && t[k].text != "{" && t[k].text != ";" &&
               t[k].text != "(")
            ++k;
        if (k >= end || t[k].text != "{")
            return k + 1;  // forward declaration or elaborated use
        std::size_t close = matchBrace(t, k, "{", "}");
        if (!name.empty()) {
            ClassInfo info;
            info.name = name;
            info.line = t[i].line;
            parseClassBody(&info, k + 1, close);
            f_.classes.push_back(std::move(info));
        }
        // Trailing `;` (and possible variable declarator) skipped.
        std::size_t after = close + 1;
        while (after < end && t[after].text != ";")
            ++after;
        return after + 1;
    }

    /** Parse member declarations in a class body [begin, end). */
    void
    parseClassBody(ClassInfo *info, std::size_t begin, std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        std::size_t i = begin;
        while (i < end) {
            const std::string &tx = t[i].text;
            if ((tx == "public" || tx == "private" ||
                 tx == "protected") &&
                i + 1 < end && t[i + 1].text == ":") {
                i += 2;
                continue;
            }
            if (tx == "template") {
                i = skipTemplateHeader(i, end);
                continue;
            }
            if (tx == "class" || tx == "struct") {
                i = parseClassOrSkip(i, end);
                continue;
            }
            if (tx == "enum") {
                while (i < end && t[i].text != "{" && t[i].text != ";")
                    ++i;
                if (i < end && t[i].text == "{")
                    i = matchBrace(t, i, "{", "}");
                while (i < end && t[i].text != ";")
                    ++i;
                ++i;
                continue;
            }
            if (tx == "using" || tx == "typedef" || tx == "friend" ||
                tx == "static_assert") {
                std::size_t j = i;
                while (j < end && t[j].text != ";")
                    ++j;
                i = j + 1;
                continue;
            }
            i = parseMemberStatement(info, i, end);
        }
    }

    /**
     * One member statement: a method (declaration or inline
     * definition) or a field.  Returns the index past the statement.
     */
    std::size_t
    parseMemberStatement(ClassInfo *info, std::size_t begin,
                         std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        bool is_static = false;
        int angle = 0;
        std::string last_ident;
        std::string field_name;
        std::vector<std::string> type_tokens;
        std::size_t i = begin;

        for (; i < end; ++i) {
            const std::string &tx = t[i].text;
            if (tx == ";")
                break;
            if (tx == "static" || tx == "constexpr")
                is_static = true;
            if (tx == "operator") {
                // Consume the operator symbol up to its `(`.
                while (i < end && t[i].text != "(")
                    ++i;
                return finishMethod(info, begin, i, end, "operator",
                                    is_static);
            }
            if (tx == "<" && !last_ident.empty() && angle >= 0) {
                ++angle;
            } else if (tx == ">" && angle > 0) {
                --angle;
            } else if (tx == "(" && angle == 0) {
                return finishMethod(info, begin, i, end, last_ident,
                                    is_static);
            } else if ((tx == "=" || tx == "{" || tx == "[") &&
                       angle == 0) {
                // Field with initializer / array extent: name seen.
                field_name = last_ident;
                // Skip to the statement end, honouring nesting.
                if (tx == "{") {
                    i = matchBrace(t, i, "{", "}");
                } else if (tx == "[") {
                    i = matchBrace(t, i, "[", "]");
                }
                ++i;
                while (i < end && t[i].text != ";") {
                    if (t[i].text == "{")
                        i = matchBrace(t, i, "{", "}");
                    else if (t[i].text == "(")
                        i = matchBrace(t, i, "(", ")");
                    ++i;
                }
                break;
            }
            if (t[i].ident && !isKeyword(tx)) {
                if (!last_ident.empty())
                    type_tokens.push_back(last_ident);
                last_ident = tx;
            } else if (t[i].ident || tx == "::" || tx == "<" ||
                       tx == ">" || tx == "*" || tx == "&") {
                if (!last_ident.empty()) {
                    type_tokens.push_back(last_ident);
                    last_ident.clear();
                }
                type_tokens.push_back(tx);
            }
        }
        if (field_name.empty())
            field_name = last_ident;
        if (!field_name.empty() && !is_static && i > begin) {
            Field fld;
            fld.name = field_name;
            fld.line = t[begin].line;
            std::string type;
            for (const std::string &tt : type_tokens) {
                if (!type.empty())
                    type += ' ';
                type += tt;
            }
            fld.type = type;
            info->fields.push_back(std::move(fld));
        }
        return i + 1;
    }

    /**
     * At the `(` opening a member function's parameter list: consume
     * the declaration (and inline body, if present).
     */
    std::size_t
    finishMethod(ClassInfo *info, std::size_t stmt_begin,
                 std::size_t paren, std::size_t end,
                 const std::string &name, bool is_static)
    {
        (void)is_static;
        const std::vector<Token> &t = f_.tokens;
        std::size_t close = matchBrace(t, paren, "(", ")");
        Method m;
        m.name = name;
        m.line = t[stmt_begin].line;
        m.params = joinTokens(t, paren + 1, close);

        // After the parameter list: trailing qualifiers, `= 0`,
        // `= default`, a constructor initializer list, then either
        // `;` or the body `{`.
        std::size_t i = close + 1;
        bool in_init_list = false;
        std::string prev = ")";
        std::string prev2;
        while (i < end) {
            const std::string &tx = t[i].text;
            if (tx == ";") {
                ++i;
                break;
            }
            if (tx == ":")
                in_init_list = true;
            if (tx == "(") {
                i = matchBrace(t, i, "(", ")");
                prev2 = prev;
                prev = ")";
                ++i;
                continue;
            }
            if (tx == "{") {
                const bool init_brace =
                    in_init_list && !prev.empty() &&
                    (std::isalpha((unsigned char)prev[0]) ||
                     prev[0] == '_') &&
                    (prev2 == ":" || prev2 == ",");
                std::size_t body_close = matchBrace(t, i, "{", "}");
                if (init_brace) {
                    prev2 = prev;
                    prev = "}";
                    i = body_close + 1;
                    continue;
                }
                m.hasBody = true;
                m.body.assign(t.begin() + long(i) + 1,
                              t.begin() + long(body_close));
                i = body_close + 1;
                break;
            }
            prev2 = prev;
            prev = tx;
            ++i;
        }
        if (info)
            info->methods.push_back(std::move(m));
        return i;
    }

    /**
     * A namespace-scope statement: free function (possibly a
     * qualified out-of-line method definition), variable, alias...
     * Returns the index past it.
     */
    std::size_t
    parseFreeStatement(std::size_t begin, std::size_t end)
    {
        const std::vector<Token> &t = f_.tokens;
        std::size_t i = begin;
        if (t[i].text == "using" || t[i].text == "typedef" ||
            t[i].text == "static_assert") {
            std::size_t j = i;
            while (j < end && t[j].text != ";")
                ++j;
            return j + 1;
        }
        // Scan for the first `(` at statement level; remember the
        // two identifiers around a `::` right before it.
        std::string cls, method, last_ident;
        bool qualified = false;
        int angle = 0;
        for (; i < end; ++i) {
            const std::string &tx = t[i].text;
            if (tx == ";")
                return i + 1;
            if (tx == "operator") {
                while (i < end && t[i].text != "(")
                    ++i;
                method = "operator";
                break;
            }
            if (tx == "<" && !last_ident.empty())
                ++angle;
            else if (tx == ">" && angle > 0)
                --angle;
            else if (tx == "(" && angle == 0) {
                method = last_ident;
                break;
            } else if (tx == "{") {
                // Brace without a preceding `(`: initializer or
                // stray scope; skip it whole.
                return matchBrace(t, i, "{", "}") + 1;
            }
            if (t[i].ident && !isKeyword(tx)) {
                if (i + 1 < end && t[i + 1].text == "::") {
                    cls = tx;
                    qualified = true;
                } else if (qualified && !cls.empty()) {
                    last_ident = tx;
                } else {
                    last_ident = tx;
                    qualified = false;
                    cls.clear();
                }
            }
        }
        if (i >= end || method.empty())
            return end;
        // Consume like a method; capture out-of-line bodies.
        ClassInfo scratch;
        std::size_t after =
            finishMethod(&scratch, begin, i, end, method, false);
        if (!scratch.methods.empty() && scratch.methods[0].hasBody &&
            qualified && !cls.empty()) {
            OutOfLineBody b;
            b.cls = cls;
            b.method = scratch.methods[0].name;
            b.params = scratch.methods[0].params;
            b.line = scratch.methods[0].line;
            b.body = std::move(scratch.methods[0].body);
            f_.outOfLine.push_back(std::move(b));
        }
        return after;
    }
};

// ------------------------------------------------------------ annotations

bool
hasNote(const ParsedFile &f, int line, const std::string &kind,
        std::string *reason_missing)
{
    for (const Annotation &a : f.clean.notes) {
        if (a.kind != kind)
            continue;
        if (a.line == line || (a.standalone && a.line == line - 1)) {
            if (a.reason.empty() && reason_missing)
                *reason_missing = a.kind;
            return !a.reason.empty();
        }
    }
    return false;
}

void
finding(std::vector<Finding> *out, const ParsedFile &f, int line,
        const char *checker, std::string message)
{
    out->push_back({f.path, line, checker, std::move(message)});
}

// ------------------------------------------------------------- checker 1

/**
 * Locate the body of @p cls::@p method whose parameter list contains
 * one of @p param_hints, searching the class's inline definitions
 * first and every file's out-of-line definitions second.
 */
const std::vector<Token> *
findBody(const std::vector<ParsedFile> &files, const ClassInfo &cls,
         const std::string &method,
         const std::vector<std::string> &param_hints)
{
    auto params_match = [&](const std::string &params) {
        if (param_hints.empty())
            return true;
        for (const std::string &hint : param_hints)
            if (params.find(hint) != std::string::npos)
                return true;
        return false;
    };
    for (const Method &m : cls.methods)
        if (m.name == method && m.hasBody && params_match(m.params))
            return &m.body;
    for (const ParsedFile &f : files)
        for (const OutOfLineBody &b : f.outOfLine)
            if (b.cls == cls.name && b.method == method &&
                params_match(b.params))
                return &b.body;
    return nullptr;
}

bool
hasMethod(const ClassInfo &cls, const std::string &name,
          const std::vector<std::string> &param_hints)
{
    for (const Method &m : cls.methods) {
        if (m.name != name)
            continue;
        for (const std::string &hint : param_hints)
            if (m.params.find(hint) != std::string::npos)
                return true;
    }
    return false;
}

void
checkSnapshotCoverage(const std::vector<ParsedFile> &files,
                      std::vector<Finding> *out)
{
    for (const ParsedFile &f : files) {
        for (const ClassInfo &cls : f.classes) {
            const bool has_save =
                hasMethod(cls, "save", {"BinWriter", "Snapshot"});
            const bool has_restore =
                hasMethod(cls, "restore", {"BinReader", "Snapshot"});
            if (!has_save || !has_restore)
                continue;
            const std::vector<Token> *save =
                findBody(files, cls, "save", {"BinWriter", "Snapshot"});
            const std::vector<Token> *restore = findBody(
                files, cls, "restore", {"BinReader", "Snapshot"});
            if (!save || !restore) {
                finding(out, f, cls.line, "snapshot",
                        "class " + cls.name + ": could not locate " +
                            (!save ? "save()" : "restore()") +
                            " body (is the .cc in the lint file set?)");
                continue;
            }
            for (const Field &fld : cls.fields) {
                std::string bare;
                if (hasNote(f, fld.line, "nosnapshot", &bare))
                    continue;
                if (!bare.empty()) {
                    finding(out, f, fld.line, "snapshot",
                            "field " + cls.name + "::" + fld.name +
                                ": nosnapshot annotation needs a "
                                "(<reason>)");
                    continue;
                }
                const bool in_save = usesIdent(*save, fld.name);
                const bool in_restore = usesIdent(*restore, fld.name);
                if (in_save && in_restore)
                    continue;
                std::string missing =
                    !in_save && !in_restore ? "save() and restore()"
                    : !in_save              ? "save()"
                                            : "restore()";
                finding(out, f, fld.line, "snapshot",
                        "field " + cls.name + "::" + fld.name +
                            " is not referenced in " + missing +
                            "; serialize it or annotate the "
                            "declaration with "
                            "// lint: nosnapshot(<reason>)");
            }
        }
    }
}

// ------------------------------------------------------------- checker 2

bool
isStatWrapperType(const std::string &type)
{
    std::istringstream is(type);
    std::string tok;
    while (is >> tok)
        if (tok == "Counter" || tok == "Distribution")
            return true;
    return false;
}

void
checkStatsCoverage(const std::vector<ParsedFile> &files,
                   std::vector<Finding> *out)
{
    for (const ParsedFile &f : files) {
        for (const ClassInfo &cls : f.classes) {
            // The wrapper types themselves live in common/stats.hh.
            if (cls.name == "Counter" || cls.name == "Distribution")
                continue;
            std::vector<const Field *> stat_fields;
            for (const Field &fld : cls.fields)
                if (isStatWrapperType(fld.type))
                    stat_fields.push_back(&fld);
            if (stat_fields.empty())
                continue;
            const bool has_register = hasMethod(
                cls, "registerStats", {"StatsGroup", "StatsRegistry"});
            const std::vector<Token> *body =
                has_register
                    ? findBody(files, cls, "registerStats",
                               {"StatsGroup", "StatsRegistry"})
                    : nullptr;
            for (const Field *fld : stat_fields) {
                std::string bare;
                if (hasNote(f, fld->line, "nostat", &bare))
                    continue;
                if (!bare.empty()) {
                    finding(out, f, fld->line, "stats",
                            "field " + cls.name + "::" + fld->name +
                                ": nostat annotation needs a "
                                "(<reason>)");
                    continue;
                }
                if (!has_register) {
                    finding(out, f, fld->line, "stats",
                            "class " + cls.name + " declares stat " +
                                fld->name +
                                " but has no registerStats(); register "
                                "it or annotate with "
                                "// lint: nostat(<reason>)");
                    continue;
                }
                if (!body) {
                    finding(out, f, cls.line, "stats",
                            "class " + cls.name +
                                ": could not locate registerStats() "
                                "body (is the .cc in the lint file "
                                "set?)");
                    break;
                }
                // Accessor convention: trailing-underscore members
                // are often registered through their accessor.
                std::string accessor = fld->name;
                if (!accessor.empty() && accessor.back() == '_')
                    accessor.pop_back();
                if (usesIdent(*body, fld->name) ||
                    usesIdent(*body, accessor))
                    continue;
                finding(out, f, fld->line, "stats",
                        "stat " + cls.name + "::" + fld->name +
                            " is never registered in registerStats(); "
                            "register it or annotate with "
                            "// lint: nostat(<reason>)");
            }
        }
    }
}

// ------------------------------------------------------------- checker 3

const std::set<std::string> &
bannedCalls()
{
    static const std::set<std::string> banned = {
        "rand",         "srand",        "drand48",
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock",         "gettimeofday",
        "clock_gettime", "timespec_get", "localtime",
        "gmtime",        "mktime"};
    return banned;
}

bool
pathAllowed(const std::string &path,
            const std::vector<std::string> &allow)
{
    for (const std::string &prefix : allow)
        if (path.find(prefix) != std::string::npos)
            return true;
    return false;
}

/** Stem ("src/core/lsq") of a path, for .cc/.hh pairing. */
std::string
pathStem(const std::string &path)
{
    std::size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
}

void
checkDeterminism(const std::vector<ParsedFile> &files,
                 const LintOptions &options, std::vector<Finding> *out)
{
    // Names of unordered_{map,set} variables per file stem: a member
    // declared in foo.hh is typically iterated in foo.cc.
    std::map<std::string, std::set<std::string>> unordered_by_stem;
    for (const ParsedFile &f : files) {
        const std::vector<Token> &t = f.tokens;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].text != "unordered_map" &&
                t[i].text != "unordered_set")
                continue;
            if (t[i + 1].text != "<")
                continue;
            std::size_t close = matchBrace(t, i + 1, "<", ">");
            if (close + 1 < t.size() && t[close + 1].ident &&
                !isKeyword(t[close + 1].text)) {
                unordered_by_stem[pathStem(f.path)].insert(
                    t[close + 1].text);
            }
        }
    }

    for (const ParsedFile &f : files) {
        if (pathAllowed(f.path, options.deterministicAllow))
            continue;
        const std::vector<Token> &t = f.tokens;

        // Stem keying makes a .cc inherit the names declared in its
        // paired header automatically.
        const std::set<std::string> &unordered =
            unordered_by_stem[pathStem(f.path)];

        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::string &tx = t[i].text;
            // Wall clocks and PRNGs.
            if (t[i].ident && bannedCalls().count(tx)) {
                // Member access (foo.rand) is not the libc call.
                if (i > 0 &&
                    (t[i - 1].text == "." || t[i - 1].text == "->"))
                    continue;
                std::string bare;
                if (hasNote(f, t[i].line, "wallclock", &bare))
                    continue;
                finding(out, f, t[i].line, "determinism",
                        bare.empty()
                            ? "non-deterministic source `" + tx +
                                  "` in a result-producing path; move "
                                  "it to the obs/perf/cli layer or "
                                  "annotate with "
                                  "// lint: wallclock(<reason>)"
                            : "wallclock annotation needs a "
                              "(<reason>)");
                continue;
            }
            // `time(` / `clock(` as direct calls.
            if (t[i].ident && (tx == "time" || tx == "clock") &&
                i + 1 < t.size() && t[i + 1].text == "(" &&
                (i == 0 || (t[i - 1].text != "." &&
                            t[i - 1].text != "->" &&
                            t[i - 1].text != "::"))) {
                std::string bare;
                if (hasNote(f, t[i].line, "wallclock", &bare))
                    continue;
                finding(out, f, t[i].line, "determinism",
                        "wall-clock call `" + tx +
                            "()` in a result-producing path");
                continue;
            }
            // Range-for over an unordered container.
            if (tx == "for" && i + 1 < t.size() &&
                t[i + 1].text == "(") {
                std::size_t close = matchBrace(t, i + 1, "(", ")");
                for (std::size_t j = i + 2; j + 1 < close; ++j) {
                    if (t[j].text != ":" || t[j + 1].text == ":")
                        continue;
                    if (j > 0 && t[j - 1].text == "::")
                        continue;
                    const Token &seq = t[j + 1];
                    if (seq.ident && unordered.count(seq.text) &&
                        j + 2 <= close && t[j + 2].text == ")") {
                        std::string bare;
                        if (!hasNote(f, t[i].line, "detorder", &bare))
                            finding(
                                out, f, t[i].line, "determinism",
                                "iteration over unordered container `" +
                                    seq.text +
                                    "` (order varies across "
                                    "libstdc++); sort first or "
                                    "annotate with "
                                    "// lint: detorder(<reason>)");
                    }
                }
            }
            // Explicit iterator walk: NAME.begin().
            if (t[i].ident && unordered.count(tx) &&
                i + 2 < t.size() && t[i + 1].text == "." &&
                (t[i + 2].text == "begin" ||
                 t[i + 2].text == "cbegin")) {
                std::string bare;
                if (!hasNote(f, t[i].line, "detorder", &bare))
                    finding(out, f, t[i].line, "determinism",
                            "iterator walk over unordered container `" +
                                tx +
                                "`; sort first or annotate with "
                                "// lint: detorder(<reason>)");
            }
        }
    }
}

// ------------------------------------------------------------- checker 4

bool
isHeaderPath(const std::string &path)
{
    return path.size() > 3 &&
           path.compare(path.size() - 3, 3, ".hh") == 0;
}

void
checkHeaderHygiene(const std::vector<ParsedFile> &files,
                   std::vector<Finding> *out)
{
    std::map<std::string, const ParsedFile *> guards_seen;
    for (const ParsedFile &f : files) {
        if (!isHeaderPath(f.path))
            continue;
        const auto &pre = f.clean.preprocessor;

        // Guard: the first two directives must be `ifndef X` +
        // `define X` (or the file opens with `pragma once`).
        std::string guard;
        bool pragma_once = false;
        if (!pre.empty()) {
            std::istringstream first(pre[0].second);
            std::string d0, n0;
            first >> d0 >> n0;
            if (d0 == "pragma" && n0 == "once") {
                pragma_once = true;
            } else if (d0 == "ifndef" && pre.size() >= 2) {
                std::istringstream second(pre[1].second);
                std::string d1, n1;
                second >> d1 >> n1;
                if (d1 == "define" && n1 == n0)
                    guard = n0;
            }
        }
        if (!pragma_once && guard.empty()) {
            finding(out, f, pre.empty() ? 1 : pre[0].first, "hygiene",
                    "missing include guard (expected #ifndef "
                    "FLYWHEEL_..._HH / #define pair as the first "
                    "directives)");
        } else if (!pragma_once) {
            if (guard.rfind("FLYWHEEL_", 0) != 0) {
                finding(out, f, pre[0].first, "hygiene",
                        "include guard `" + guard +
                            "` does not follow the FLYWHEEL_*_HH "
                            "convention");
            }
            auto ins = guards_seen.emplace(guard, &f);
            if (!ins.second) {
                finding(out, f, pre[0].first, "hygiene",
                        "include guard `" + guard +
                            "` is already used by " +
                            ins.first->second->path);
            }
        }

        // No `using namespace` at any scope in a header.
        const std::vector<Token> &t = f.tokens;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].text == "using" &&
                t[i + 1].text == "namespace") {
                finding(out, f, t[i].line, "hygiene",
                        "`using namespace` in a header leaks into "
                        "every includer; qualify names instead");
            }
        }
    }
}

} // namespace

// ----------------------------------------------------------------- driver

const std::vector<std::string> &
checkerNames()
{
    static const std::vector<std::string> names = {
        "snapshot", "stats", "determinism", "hygiene"};
    return names;
}

std::vector<Finding>
runLint(const std::vector<LintInput> &files, const LintOptions &options)
{
    std::vector<ParsedFile> parsed;
    parsed.reserve(files.size());
    for (const LintInput &in : files) {
        ParsedFile f;
        f.path = in.path;
        f.raw = in.text;
        f.clean = cleanSource(in.text);
        f.tokens = tokenize(f.clean.code, 0, f.clean.code.size());
        StructureParser(&f).run();
        parsed.push_back(std::move(f));
    }

    std::vector<Finding> out;
    checkSnapshotCoverage(parsed, &out);
    checkStatsCoverage(parsed, &out);
    checkDeterminism(parsed, options, &out);
    checkHeaderHygiene(parsed, &out);

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.message < b.message;
              });
    return out;
}

bool
collectSources(const std::string &dir, std::vector<LintInput> *out,
               std::string *error)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        if (error)
            *error = dir + " is not a readable directory";
        return false;
    }
    std::vector<std::string> paths;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file())
            continue;
        const std::string p = it->path().string();
        const std::string ext = it->path().extension().string();
        if (ext == ".hh" || ext == ".cc")
            paths.push_back(p);
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &p : paths) {
        std::ifstream in(p);
        if (!in) {
            if (error)
                *error = "cannot read " + p;
            return false;
        }
        std::ostringstream text;
        text << in.rdbuf();
        out->push_back({p, text.str()});
    }
    return true;
}

std::string
formatFinding(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.checker +
           "] " + f.message;
}

} // namespace flywheel::lint
