#include "obs/diff.h"

#include <fnmatch.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace smite::obs {

namespace {

/** One gate rule: leaves matching `pattern` compare within
 *  `tolerance`, or not at all when `ignore`. */
struct Rule {
    std::string pattern;
    bool ignore = false;
    double tolerance = 0.0;
};

using Rules = std::vector<Rule>;

const char *
typeName(json::Value::Type t)
{
    switch (t) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return "bool";
    case json::Value::Type::kNumber: return "number";
    case json::Value::Type::kString: return "string";
    case json::Value::Type::kArray: return "array";
    case json::Value::Type::kObject: return "object";
    }
    return "?";
}

std::string
formatNumber(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

void
report(std::vector<ReportDiffEntry> &out, const std::string &path,
       std::string detail)
{
    out.push_back(ReportDiffEntry{path, std::move(detail)});
}

/**
 * The rules diffReports() applies: `name` exact, then @p a's gate in
 * declaration order, or `results.*` within 1e-9 when @p a has none.
 * `gate` and `partial` are ignored here because diffReports() checks
 * them itself (the gate in order, an absent flag as complete).
 */
Rules
rulesFor(const json::Value &a)
{
    Rules rules = {
        {"name"}, {"gate", true}, {"gate.*", true}, {"partial", true}};
    const json::Value *gate = a.find("gate");
    if (gate == nullptr) {
        rules.push_back({"results.*", false, 1e-9});
        return rules;
    }
    if (!gate->isObject())
        throw std::invalid_argument("gate is not an object");
    for (const auto &[pattern, rule] : gate->fields()) {
        const std::string what = "gate rule \"" + pattern + "\"";
        if (rule.isNumber()) {
            const double tolerance = rule.asNumber();
            if (!std::isfinite(tolerance) || tolerance < 0.0) {
                throw std::invalid_argument(
                    what + " is " + formatNumber(tolerance) +
                    "; want a finite tolerance >= 0");
            }
            rules.push_back({pattern, false, tolerance});
        } else if (rule.isString() && rule.asString() == "ignore") {
            rules.push_back({pattern, true});
        } else {
            throw std::invalid_argument(
                what + " is neither a tolerance nor \"ignore\"");
        }
    }
    return rules;
}

/** The first rule whose pattern matches @p path, or nullptr. */
const Rule *
ruleFor(const Rules &rules, const std::string &path)
{
    for (const Rule &rule : rules) {
        if (::fnmatch(rule.pattern.c_str(), path.c_str(), 0) == 0)
            return &rule;
    }
    return nullptr;
}

std::string
fieldPath(const std::string &path, const std::string &key)
{
    return path.empty() ? key : path + "." + key;
}

std::string
itemPath(const std::string &path, std::size_t i)
{
    return path + "[" + std::to_string(i) + "]";
}

/** True when some leaf of @p v, at @p path, has a tolerance rule. */
bool
compared(const json::Value &v, const std::string &path,
         const Rules &rules)
{
    for (const auto &[key, value] : v.fields()) {
        if (compared(value, fieldPath(path, key), rules))
            return true;
    }
    for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (compared(v.items()[i], itemPath(path, i), rules))
            return true;
    }
    if (v.isObject() || v.isArray())
        return false;
    const Rule *rule = ruleFor(rules, path);
    return rule != nullptr && !rule->ignore;
}

void
diffValue(const json::Value &a, const json::Value &b,
          const std::string &path, const Rules &rules,
          std::vector<ReportDiffEntry> &out)
{
    if (a.isObject() && b.isObject()) {
        // Fields of a in document order, then fields only b has.
        for (const auto &[key, value] : a.fields()) {
            const std::string child = fieldPath(path, key);
            if (const json::Value *other = b.find(key))
                diffValue(value, *other, child, rules, out);
            else if (compared(value, child, rules))
                report(out, child, "present vs missing");
        }
        for (const auto &[key, value] : b.fields()) {
            const std::string child = fieldPath(path, key);
            if (a.find(key) == nullptr && compared(value, child, rules))
                report(out, child, "missing vs present");
        }
        return;
    }
    if (a.isArray() && b.isArray() &&
        a.items().size() == b.items().size()) {
        for (std::size_t i = 0; i < a.items().size(); ++i)
            diffValue(a.items()[i], b.items()[i], itemPath(path, i),
                      rules, out);
        return;
    }
    // A leaf or a change of shape, compared when either side holds a
    // leaf with a tolerance rule.
    if (!compared(a, path, rules) && !compared(b, path, rules))
        return;
    if (a.type() != b.type()) {
        report(out, path,
               std::string(typeName(a.type())) + " vs " +
                   typeName(b.type()));
    } else if (a.isNumber()) {
        const double x = a.asNumber();
        const double y = b.asNumber();
        const double scale =
            std::max({std::fabs(x), std::fabs(y), 1e-12});
        if (std::fabs(x - y) > ruleFor(rules, path)->tolerance * scale)
            report(out, path, formatNumber(x) + " vs " + formatNumber(y));
    } else if (a.isArray()) {
        // Same-length arrays were compared element by element above.
        report(out, path,
               std::to_string(a.items().size()) + " vs " +
                   std::to_string(b.items().size()) + " elements");
    } else if (a.dump() != b.dump()) {
        report(out, path, a.dump() + " vs " + b.dump());
    }
}

bool
isPartial(const json::Value &doc)
{
    const json::Value *flag = doc.find("partial");
    return flag != nullptr && flag->asBool();
}

std::string
gateText(const json::Value &doc)
{
    const json::Value *gate = doc.find("gate");
    return gate == nullptr ? "no gate" : gate->dump();
}

} // namespace

std::vector<ReportDiffEntry>
diffReports(const json::Value &a, const json::Value &b)
{
    const Rules rules = rulesFor(a);
    std::vector<ReportDiffEntry> out;
    // A gate that differs from the baseline's, if only in the order
    // of its rules, would compare by other rules than it declares.
    if (gateText(a) != gateText(b))
        report(out, "gate", gateText(a) + " vs " + gateText(b));
    diffValue(a, b, "", rules, out);
    // The partial flag is a headline difference: one run degraded,
    // the other did not.
    if (isPartial(a) != isPartial(b)) {
        report(out, "partial",
               std::string(isPartial(a) ? "partial" : "complete") +
                   " vs " + (isPartial(b) ? "partial" : "complete"));
    }
    return out;
}

} // namespace smite::obs
