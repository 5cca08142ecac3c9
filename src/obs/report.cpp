#include "obs/report.h"

#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace smite::obs {

json::Value
RunReport::toJson() const
{
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value(kRunReportSchema));
    doc.set("name", json::Value(name_));
    if (!gate_.fields().empty())
        doc.set("gate", gate_);
    doc.set("config", config_);
    doc.set("timings", timings_);
    doc.set("results", results_);
    if (partial_) {
        doc.set("partial", json::Value(true));
        json::Value incidents = json::Value::array();
        for (const std::string &what : incidents_)
            incidents.push(json::Value(what));
        doc.set("incidents", std::move(incidents));
    }
    doc.set("metrics", Registry::global().toJson());
    return doc;
}

bool
RunReport::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "smite: cannot write report to %s\n",
                     path.c_str());
        return false;
    }
    out << toJson().dump(1) << "\n";
    return static_cast<bool>(out);
}

} // namespace smite::obs
