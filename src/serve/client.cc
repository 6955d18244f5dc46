#include "serve/client.hh"

#include <cmath>

namespace flywheel::serve {

bool
ServeClient::connect(const ServeAddress &address, std::string *error)
{
    socket_.close();
    return socket_.connectTo(address, error);
}

bool
ServeClient::request(const Json &frame, const char *expectType,
                     Json *reply, std::string *error)
{
    if (!socket_.connected()) {
        if (error)
            *error = "not connected";
        return false;
    }
    if (!socket_.sendFrame(frame)) {
        if (error)
            *error = "server closed the connection";
        return false;
    }
    Json got;
    if (!socket_.recvFrame(&got, error))
        return false;
    const std::string type = got["type"].asString();
    if (type == "error") {
        if (error)
            *error = got["error"].asString();
        return false;
    }
    if (type != expectType) {
        if (error)
            *error = "expected '" + std::string(expectType) +
                     "' reply, got '" + type + "'";
        return false;
    }
    if (reply)
        *reply = std::move(got);
    return true;
}

bool
ServeClient::submit(const ExperimentSpec &spec, Submitted *out,
                    std::string *error)
{
    Json frame = Json::object();
    frame.add("type", "submit");
    frame.add("v", kServeSchema);
    frame.add("spec", spec.toJson());
    Json reply;
    if (!request(frame, "submitted", &reply, error))
        return false;
    if (out) {
        out->jobId = reply["job"].asString();
        out->cells = reply["cells"].asU64();
        out->resumed = reply["resumed"].kind() == Json::Kind::Bool &&
                       reply["resumed"].asBool();
    }
    return true;
}

bool
ServeClient::status(const std::string &jobId, Json *out,
                    std::string *error, double waitSeconds)
{
    Json frame = Json::object();
    frame.add("type", "status");
    frame.add("job", jobId);
    if (waitSeconds > 0.0)
        frame.add("wait", waitSeconds);
    return request(frame, "status", out, error);
}

bool
ServeClient::results(const std::string &jobId, std::string *tableJson,
                     std::string *tableCsv, std::string *error)
{
    Json frame = Json::object();
    frame.add("type", "results");
    frame.add("job", jobId);
    Json reply;
    if (!request(frame, "table", &reply, error))
        return false;
    if (tableJson)
        *tableJson = reply["json"].asString();
    if (tableCsv)
        *tableCsv = reply["csv"].asString();
    return true;
}

bool
ServeClient::cancel(const std::string &jobId, std::string *error)
{
    Json frame = Json::object();
    frame.add("type", "cancel");
    frame.add("job", jobId);
    return request(frame, "ok", nullptr, error);
}

bool
ServeClient::stats(Json *out, std::string *error)
{
    Json frame = Json::object();
    frame.add("type", "stats");
    Json reply;
    if (!request(frame, "stats", &reply, error))
        return false;
    if (out)
        *out = reply["stats"];
    return true;
}

bool
ServeClient::shutdown(std::string *error)
{
    Json frame = Json::object();
    frame.add("type", "shutdown");
    return request(frame, "ok", nullptr, error);
}

bool
ServeClient::waitForCompletion(
    const std::string &jobId, double pollSeconds,
    const std::function<void(const Json &status)> &onStatus,
    std::string *error)
{
    // The server holds each status until the job ends or the wait
    // runs out, so a `running` reply is a progress report: ask again.
    const double wait =
        pollSeconds > 0.0 && std::isfinite(pollSeconds) ? pollSeconds
                                                        : 0.2;
    while (true) {
        Json st;
        if (!status(jobId, &st, error, wait))
            return false;
        if (onStatus)
            onStatus(st);
        const std::string state = st["state"].asString();
        if (state == "complete")
            return true;
        if (state != "running") {
            if (error)
                *error = "job " + jobId + " is " + state;
            return false;
        }
    }
}

} // namespace flywheel::serve
