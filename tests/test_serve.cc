/**
 * @file
 * Tests for the distributed sweep service: the NDJSON frame codec
 * (round-trip, malformed-frame rejection, buffer overflow poisoning),
 * server-address parsing, the durable job journal (replay, torn-tail
 * tolerance, resume validation), the lease-based scheduler
 * (expansion order, expiry reassignment, worker release, sibling
 * hold-back, a finished job leaving), push delivery over raw
 * FrameSockets (parked leases answered by a submit, a done, a lease
 * expiry or shutdown; a spec in every work frame; status waits
 * answered at completion or their deadline; reply order behind a
 * parked request; a done journaled only once its result loads from
 * the store; late dones and cancels of a finished job; v1-v3 peers,
 * specs past the cell cap or the delivery limit, and replies past the
 * frame cap refused), and in-process end-to-end runs — one ServeDaemon
 * on a Unix socket plus worker threads must produce a table
 * byte-identical to a single-process Session::run of the same spec,
 * simulate each run once, hold no descriptor per finished job, answer
 * for a finished job after a restart, and its results/ directory must
 * serve a local Session as a result store.  The store itself is
 * tested in test_sweep.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "core/report.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "serve/worker.hh"
#include "sweep/sweep.hh"

namespace flywheel {
namespace {

namespace fs = std::filesystem;
using serve::FrameBuffer;
using serve::FrameSocket;
using serve::JobScheduler;
using serve::JournalState;
using serve::JournalWriter;
using serve::ResultStore;
using serve::ServeAddress;
using serve::ServeClient;
using serve::ServeDaemon;
using serve::ServeOptions;
using serve::WorkUnit;

/** Self-cleaning scratch directory (sockets, journals, stores). */
struct TempDir
{
    TempDir()
    {
        std::random_device rd;
        dir = fs::temp_directory_path() /
              ("flywheel_serve_test_" + std::to_string(rd()));
        fs::create_directories(dir);
    }
    ~TempDir() { fs::remove_all(dir); }

    std::string operator/(const std::string &name) const
    {
        return (dir / name).string();
    }

    fs::path dir;
};

/** Cheap 4-cell spec (2 benches x {baseline, flywheel}). */
ExperimentSpec
tinySpec()
{
    ExperimentSpec spec;
    spec.name = "serve_e2e";
    spec.title = "serve end-to-end test";
    GridSpec grid;
    grid.benchmarks = {"gzip", "gcc"};
    grid.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    spec.grids.push_back(grid);
    // Pin run lengths so resolveSpec() leaves the spec untouched and
    // the job id is environment-independent.
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 5000;
    return spec;
}

/** A one-cell spec (gzip, baseline) named @p name. */
ExperimentSpec
oneCellSpec(const std::string &name = "serve_one_cell")
{
    ExperimentSpec spec = tinySpec();
    spec.name = name;
    spec.grids[0].benchmarks = {"gzip"};
    spec.grids[0].kinds = {CoreKind::Baseline};
    return spec;
}

// ------------------------------------------------------------- codec

TEST(ServeProtocol, FrameRoundTripsThroughEncodeAndDecode)
{
    Json frame = Json::object();
    frame.add("type", "submit");
    frame.add("v", serve::kServeSchema);
    frame.add("cells", std::uint64_t(42));

    const std::string wire = serve::encodeFrame(frame);
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire.back(), '\n');
    // Compact encoding: a frame is exactly one line.
    EXPECT_EQ(wire.find('\n'), wire.size() - 1);

    Json back;
    std::string error;
    ASSERT_TRUE(serve::decodeFrame(wire.substr(0, wire.size() - 1),
                                   &back, &error))
        << error;
    EXPECT_EQ(back["type"].asString(), "submit");
    EXPECT_EQ(back["cells"].asU64(), 42u);
    EXPECT_TRUE(serve::checkFrameVersion(back, &error)) << error;
}

TEST(ServeProtocol, MalformedFramesAreRejected)
{
    Json out;
    std::string error;
    // Non-JSON, non-object, and missing/empty/non-string "type" all
    // fail without touching *out.
    EXPECT_FALSE(serve::decodeFrame("not json", &out, &error));
    EXPECT_FALSE(serve::decodeFrame("[1, 2, 3]", &out, &error));
    EXPECT_FALSE(serve::decodeFrame("{\"cells\": 1}", &out, &error));
    EXPECT_FALSE(serve::decodeFrame("{\"type\": 7}", &out, &error));
    EXPECT_FALSE(serve::decodeFrame("{\"type\": \"\"}", &out, &error));
    EXPECT_FALSE(serve::decodeFrame("", &out, &error));

    Json noVersion = Json::object();
    noVersion.add("type", "submit");
    EXPECT_FALSE(serve::checkFrameVersion(noVersion, &error));
    noVersion.add("v", "flywheel.serve.v999");
    EXPECT_FALSE(serve::checkFrameVersion(noVersion, &error));
}

TEST(ServeProtocol, FrameBufferSplitsLinesAcrossAppends)
{
    FrameBuffer buf;
    std::string line;
    buf.append("{\"type\": \"a\"}\n{\"ty", 18);
    EXPECT_TRUE(buf.nextLine(&line));
    EXPECT_EQ(line, "{\"type\": \"a\"}");
    EXPECT_FALSE(buf.nextLine(&line));  // second frame incomplete
    buf.append("pe\": \"b\"}\n", 10);
    EXPECT_TRUE(buf.nextLine(&line));
    EXPECT_EQ(line, "{\"type\": \"b\"}");
    EXPECT_FALSE(buf.overflowed());
}

TEST(ServeProtocol, OversizedLinePoisonsTheBuffer)
{
    FrameBuffer buf;
    // One un-delimited line past the cap can never become a legal
    // frame; the buffer latches overflowed and stops producing.
    const std::string chunk(1u << 20, 'x');
    for (int i = 0; i < 9; ++i)
        buf.append(chunk.data(), chunk.size());
    EXPECT_TRUE(buf.overflowed());
    std::string line;
    EXPECT_FALSE(buf.nextLine(&line));
    buf.append("\n", 1);  // a late delimiter does not un-poison
    EXPECT_FALSE(buf.nextLine(&line));
}

TEST(ServeProtocol, ParseServeAddressSelectsTransport)
{
    ServeAddress addr;
    std::string error;

    ASSERT_TRUE(serve::parseServeAddress("10.0.0.7:4711", &addr,
                                         &error));
    EXPECT_TRUE(addr.tcp);
    EXPECT_EQ(addr.host, "10.0.0.7");
    EXPECT_EQ(addr.port, 4711);
    EXPECT_EQ(addr.display(), "10.0.0.7:4711");

    // Port 0 asks a listener for an ephemeral port.
    ASSERT_TRUE(serve::parseServeAddress("localhost:0", &addr, &error));
    EXPECT_TRUE(addr.tcp);
    EXPECT_EQ(addr.port, 0);

    EXPECT_FALSE(serve::parseServeAddress("host:70000", &addr, &error));
    EXPECT_FALSE(serve::parseServeAddress("", &addr, &error));

    // A '/' anywhere, or a non-numeric tail, means a socket path.
    ASSERT_TRUE(serve::parseServeAddress("/tmp/store/serve.sock",
                                         &addr, &error));
    EXPECT_FALSE(addr.tcp);
    EXPECT_EQ(addr.path, "/tmp/store/serve.sock");
    ASSERT_TRUE(serve::parseServeAddress("./x:0/sock", &addr, &error));
    EXPECT_FALSE(addr.tcp);
    ASSERT_TRUE(serve::parseServeAddress("serve.sock", &addr, &error));
    EXPECT_FALSE(addr.tcp);
}

// ----------------------------------------------------------- journal

TEST(ServeJournal, WriteThenReplayRoundTrips)
{
    TempDir td;
    const ExperimentSpec spec = tinySpec();
    std::string error;
    JournalWriter writer;
    ASSERT_TRUE(writer.open(td.dir.string(), "deadbeef00000001", spec,
                            4, &error))
        << error;
    EXPECT_TRUE(writer.append(2, "key-two", 1.5));
    EXPECT_TRUE(writer.append(0, "key-zero", 0.25));

    JournalState state;
    ASSERT_TRUE(serve::journalLoad(writer.path(), &state, &error))
        << error;
    EXPECT_EQ(state.jobId, "deadbeef00000001");
    EXPECT_EQ(state.cells, 4u);
    EXPECT_EQ(state.spec.name, spec.name);
    ASSERT_EQ(state.entries.size(), 2u);
    EXPECT_EQ(state.entries[0].cell, 2u);
    EXPECT_EQ(state.entries[0].key, "key-two");
    EXPECT_DOUBLE_EQ(state.entries[0].wallSeconds, 1.5);
    EXPECT_FALSE(state.complete);
    EXPECT_EQ(state.ignoredLines, 0u);
    EXPECT_EQ(state.uniqueCompleted(), 2u);

    EXPECT_TRUE(writer.markComplete());
    ASSERT_TRUE(serve::journalLoad(writer.path(), &state, &error));
    EXPECT_TRUE(state.complete);
}

TEST(ServeJournal, TornTailIsIgnoredButPrefixLoads)
{
    TempDir td;
    std::string error;
    JournalWriter writer;
    ASSERT_TRUE(writer.open(td.dir.string(), "deadbeef00000002",
                            tinySpec(), 4, &error))
        << error;
    EXPECT_TRUE(writer.append(0, "key-zero", 0.5));
    EXPECT_TRUE(writer.append(1, "key-one", 0.5));

    // A kill -9 mid-append leaves a torn final line; replay must keep
    // the readable prefix and only count the damage.
    {
        std::ofstream out(writer.path(), std::ios::app);
        out << "{\"cell\": 2, \"ke";
    }
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(writer.path(), &state, &error))
        << error;
    EXPECT_EQ(state.entries.size(), 2u);
    EXPECT_EQ(state.ignoredLines, 1u);
    EXPECT_FALSE(state.complete);
}

TEST(ServeJournal, UnusableHeaderFailsTheLoad)
{
    TempDir td;
    const std::string path = td / "job-badc0ffee0000000.json";
    JournalState state;
    std::string error;

    EXPECT_FALSE(serve::journalLoad(td / "job-missing.json", &state,
                                    &error));

    {
        std::ofstream out(path);
        out << "{\"v\": \"flywheel.serve.journal.v999\", "
               "\"job\": \"badc0ffee0000000\", \"cells\": 1, "
               "\"spec\": {}}\n";
    }
    EXPECT_FALSE(serve::journalLoad(path, &state, &error));

    {
        std::ofstream out(path);
        out << "not a header\n";
    }
    EXPECT_FALSE(serve::journalLoad(path, &state, &error));
}

TEST(ServeJournal, ResumeOpenRejectsAForeignJournal)
{
    TempDir td;
    std::string error;
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.open(td.dir.string(), "deadbeef00000003",
                                tinySpec(), 4, &error))
            << error;
        EXPECT_TRUE(writer.append(0, "key-zero", 0.5));
    }
    // Same id and cell count resumes...
    {
        JournalWriter writer;
        EXPECT_TRUE(writer.open(td.dir.string(), "deadbeef00000003",
                                tinySpec(), 4, &error))
            << error;
    }
    // ...a different cell count under the same name must refuse (the
    // file describes some other job; mixing records would corrupt).
    {
        JournalWriter writer;
        EXPECT_FALSE(writer.open(td.dir.string(), "deadbeef00000003",
                                 tinySpec(), 5, &error));
    }
}

TEST(ServeJournal, NameParsingIsStrict)
{
    std::string id;
    EXPECT_TRUE(
        serve::journalIdFromName("job-0123456789abcdef.json", &id));
    EXPECT_EQ(id, "0123456789abcdef");
    EXPECT_FALSE(serve::journalIdFromName("job-.json", &id));
    EXPECT_FALSE(serve::journalIdFromName("result-abc.json", &id));
    EXPECT_FALSE(serve::journalIdFromName("job-abc", &id));
}

// --------------------------------------------------------- scheduler

TEST(ServeScheduler, LeasesDrainAJobExactlyOnce)
{
    JobScheduler sched(60.0);
    ASSERT_TRUE(sched.addJob("job1", {"0", "1", "2"}));
    EXPECT_FALSE(sched.addJob("job1", {"0", "1", "2"}));

    std::set<std::size_t> leased;
    WorkUnit unit;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
        EXPECT_EQ(unit.jobId, "job1");
        EXPECT_TRUE(leased.insert(unit.cell).second);
    }
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));  // all leased

    // Each first completion is news; the last one ends the job, which
    // then leaves the scheduler.
    for (std::size_t cell : leased) {
        EXPECT_TRUE(sched.hasJob("job1"));
        EXPECT_TRUE(sched.completed("job1", cell));
    }
    EXPECT_FALSE(sched.hasJob("job1"));
    EXPECT_EQ(sched.progress("job1").cells, 0u);
    EXPECT_FALSE(sched.cancel("job1"));  // a finished job stays finished

    // Completion is idempotent; repeats and unknown cells are noise.
    EXPECT_FALSE(sched.completed("job1", 0));
    EXPECT_FALSE(sched.completed("job1", 99));
    EXPECT_FALSE(sched.completed("nope", 0));
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));
}

TEST(ServeScheduler, CellsLeaseInExpansionOrder)
{
    // Say cells 0 and 1 run gzip and cell 2 gcc: once cell 0 is done,
    // a longest-predicted-first order leases the unmeasured gcc cell
    // ahead of cell 1.  Expansion order reads no wall times.
    JobScheduler sched(60.0);
    ASSERT_TRUE(sched.addJob("job1", {"0", "1", "2"}));

    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 0u);
    sched.completed("job1", 0);
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 1u);
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 2u);
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));
}

TEST(ServeScheduler, ExpiredLeasesReassignToAnotherWorker)
{
    JobScheduler sched(/*leaseTimeout=*/10.0);
    ASSERT_TRUE(sched.addJob("job1", {"0"}));

    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", /*now=*/0.0, &unit));
    EXPECT_FALSE(sched.lease("w2", 1.0, &unit));  // cell is leased

    // Heartbeats keep the lease alive past its original deadline...
    sched.heartbeat("w1", 8.0);
    EXPECT_TRUE(sched.expireLeases(12.0).empty());

    // ...then the worker goes silent and the cell re-pends.
    const std::vector<WorkUnit> expired = sched.expireLeases(18.1);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].jobId, "job1");
    EXPECT_EQ(expired[0].cell, 0u);
    EXPECT_EQ(expired[0].worker, "w1");  // the shard that let it lapse
    EXPECT_EQ(sched.progress("job1").pending, 1u);

    ASSERT_TRUE(sched.lease("w2", 19.0, &unit));
    EXPECT_EQ(unit.cell, 0u);

    // A completion from the expired holder still lands (the store
    // already has the result; duplicates collapse).
    EXPECT_TRUE(sched.completed("job1", 0));
    EXPECT_FALSE(sched.hasJob("job1"));
}

TEST(ServeScheduler, ReleaseWorkerRePendsItsLeasesImmediately)
{
    JobScheduler sched(60.0);
    ASSERT_TRUE(sched.addJob("job1", {"0", "1"}));
    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    ASSERT_TRUE(sched.lease("w2", 0.0, &unit));

    const std::vector<WorkUnit> released = sched.releaseWorker("w1");
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(sched.progress("job1").pending, 1u);
    EXPECT_EQ(sched.progress("job1").leased, 1u);
    EXPECT_TRUE(sched.releaseWorker("w1").empty());  // nothing left
}

TEST(ServeScheduler, CancelDropsPendingAndLeasedCells)
{
    JobScheduler sched(60.0);
    ASSERT_TRUE(sched.addJob("job1", {"0", "1", "2"}));
    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    sched.completed("job1", unit.cell);
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    const std::size_t leasedCell = unit.cell;

    ASSERT_TRUE(sched.cancel("job1"));
    EXPECT_FALSE(sched.cancel("nope"));
    // A cancelled job leaves the scheduler, as a finished one does.
    EXPECT_FALSE(sched.hasJob("job1"));
    EXPECT_FALSE(sched.cancel("job1"));
    EXPECT_EQ(sched.progress("job1").cells, 0u);
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));

    // A late completion in a cancelled job is not news to journal.
    EXPECT_FALSE(sched.completed("job1", leasedCell));
    EXPECT_FALSE(sched.hasJob("job1"));
}

TEST(ServeScheduler, JournalReplayedCellsNeverLease)
{
    JobScheduler sched(60.0);
    ASSERT_TRUE(
        sched.addJob("job1", {"0", "1", "2"}, /*completed=*/{0, 2}));
    const serve::JobProgress p = sched.progress("job1");
    EXPECT_EQ(p.done, 2u);
    EXPECT_EQ(p.pending, 1u);

    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 1u);
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));
}

TEST(ServeScheduler, SiblingsOfALeasedRunAreHeldBack)
{
    JobScheduler sched(60.0);
    // Cells 0-2 simulate run "a" (say, three tech nodes), cell 3 "b".
    ASSERT_TRUE(sched.addJob("job1", {"a", "a", "a", "b"}));

    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 0u);
    // Cells 1 and 2 wait for cell 0's run; the next free cell is 3.
    ASSERT_TRUE(sched.lease("w2", 0.0, &unit));
    EXPECT_EQ(unit.cell, 3u);
    EXPECT_FALSE(sched.lease("w3", 0.0, &unit));
    EXPECT_EQ(sched.progress("job1").pending, 2u);

    // A later job's sibling waits as well.
    ASSERT_TRUE(sched.addJob("job2", {"b"}));
    EXPECT_FALSE(sched.lease("w3", 0.0, &unit));

    // A finished run releases its siblings one at a time: the first
    // reduces from the stored run, and so does the next.
    sched.completed("job1", 0);
    ASSERT_TRUE(sched.lease("w3", 0.0, &unit));
    EXPECT_EQ(unit.jobId, "job1");
    EXPECT_EQ(unit.cell, 1u);
    EXPECT_FALSE(sched.lease("w1", 0.0, &unit));
    sched.completed("job1", 1);
    sched.completed("job1", 3);
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.cell, 2u);
    ASSERT_TRUE(sched.lease("w2", 0.0, &unit));
    EXPECT_EQ(unit.jobId, "job2");
    sched.completed("job1", 2);
    sched.completed("job2", 0);
    EXPECT_FALSE(sched.hasJob("job1"));
    EXPECT_FALSE(sched.hasJob("job2"));
}

TEST(ServeScheduler, ExpiredReleasedAndCancelledLeasesFreeTheirRun)
{
    JobScheduler sched(/*leaseTimeout=*/10.0);
    ASSERT_TRUE(sched.addJob("job1", {"a", "a"}));
    ASSERT_TRUE(sched.addJob("job2", {"b", "b"}));
    ASSERT_TRUE(sched.addJob("job3", {"c", "c"}));

    WorkUnit unit;
    ASSERT_TRUE(sched.lease("w1", 0.0, &unit));
    EXPECT_EQ(unit.jobId, "job1");
    ASSERT_TRUE(sched.lease("w2", 5.0, &unit));
    EXPECT_EQ(unit.jobId, "job2");
    ASSERT_TRUE(sched.lease("w3", 5.0, &unit));
    EXPECT_EQ(unit.jobId, "job3");
    EXPECT_FALSE(sched.lease("w4", 5.0, &unit));

    // w1 goes silent: its cell re-pends and its run is free again.
    ASSERT_EQ(sched.expireLeases(12.0).size(), 1u);
    ASSERT_TRUE(sched.lease("w4", 12.0, &unit));
    EXPECT_EQ(unit.jobId, "job1");
    EXPECT_EQ(unit.cell, 0u);
    EXPECT_FALSE(sched.lease("w4", 12.0, &unit));

    // w2 detaches: the same.
    ASSERT_EQ(sched.releaseWorker("w2").size(), 1u);
    ASSERT_TRUE(sched.lease("w5", 12.0, &unit));
    EXPECT_EQ(unit.jobId, "job2");
    EXPECT_FALSE(sched.lease("w5", 12.0, &unit));

    // Cancelling job3 drops its lease; a resubmission may run "c".
    ASSERT_TRUE(sched.cancel("job3"));
    ASSERT_TRUE(sched.addJob("job4", {"c"}));
    ASSERT_TRUE(sched.lease("w6", 12.0, &unit));
    EXPECT_EQ(unit.jobId, "job4");
}

// ---------------------------------------------------- push delivery

using namespace std::chrono_literals;

/** A daemon on a Unix socket under @p dir, served from a thread
 *  until stop() or destruction. */
class LiveDaemon
{
  public:
    explicit LiveDaemon(const std::string &dir,
                        ServeOptions options = ServeOptions{})
    {
        options.storeDir = dir + "/store";
        std::string error;
        EXPECT_TRUE(serve::parseServeAddress(dir + "/serve.sock",
                                             &options.listen, &error))
            << error;
        daemon_ = std::make_unique<ServeDaemon>(std::move(options));
        EXPECT_TRUE(daemon_->start(&error)) << error;
        thread_ = std::thread([this] { daemon_->run(); });
    }

    ~LiveDaemon() { stop(); }

    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

    void
    stop()
    {
        if (thread_.joinable()) {
            daemon_->stop();
            thread_.join();
        }
    }

    const ServeAddress &address() const
    {
        return daemon_->boundAddress();
    }

  private:
    std::unique_ptr<ServeDaemon> daemon_;
    std::thread thread_;
};

Json
frameOf(const std::string &type)
{
    Json frame = Json::object();
    frame.add("type", type);
    return frame;
}

Json
workerFrame(const std::string &type, const std::string &worker)
{
    Json frame = frameOf(type);
    frame.add("worker", worker);
    return frame;
}

/** Connect @p socket to @p address as a worker named @p name. */
void
attachWorker(FrameSocket &socket, const ServeAddress &address,
             const std::string &name)
{
    std::string error;
    ASSERT_TRUE(socket.connectTo(address, &error)) << error;
    Json hello = workerFrame("hello", name);
    hello.add("v", serve::kServeSchema);
    ASSERT_TRUE(socket.sendFrame(hello));
    Json welcome;
    ASSERT_TRUE(socket.recvFrame(&welcome, &error)) << error;
    ASSERT_EQ(welcome["type"].asString(), "welcome");
}

/**
 * The next frame on @p socket, received on its own thread so a test
 * can wait for it with a timeout.  A closed connection yields a
 * frame of type "closed".  The socket must outlive the future, and
 * the daemon must stop before the future is destroyed unanswered.
 */
std::future<Json>
nextFrame(FrameSocket &socket)
{
    return std::async(std::launch::async, [&socket] {
        Json frame;
        std::string error;
        if (!socket.recvFrame(&frame, &error))
            frame = frameOf("closed");
        return frame;
    });
}

bool
arrivesWithin(std::future<Json> &frame,
              std::chrono::milliseconds timeout)
{
    return frame.wait_for(timeout) == std::future_status::ready;
}

/** A done frame for @p cell of @p spec, whose result it sends nowhere. */
Json
unpublishedDoneFrame(const std::string &worker, const std::string &jobId,
                     const ExperimentSpec &spec, std::size_t cell)
{
    Json done = workerFrame("done", worker);
    done.add("job", jobId);
    done.add("cell", std::uint64_t(cell));
    done.add("key", configKey(spec.expand().at(cell).config));
    done.add("wall", 0.0);
    done.add("storeHit", false);
    return done;
}

/**
 * Simulate @p cell of @p spec here and publish its result to the
 * daemon's store under @p dir, as a worker does before its done.
 */
void
publishCell(const std::string &dir, const ExperimentSpec &spec,
            std::size_t cell)
{
    const RunConfig config = spec.expand().at(cell).config;
    ResultStore store(dir + "/store/results");
    ASSERT_TRUE(store.save(configKey(config),
                           CellExecutor(nullptr, nullptr).run(config)));
}

/** A done frame for @p cell, its result published first. */
Json
doneFrame(const std::string &dir, const std::string &worker,
          const std::string &jobId, const ExperimentSpec &spec,
          std::size_t cell)
{
    publishCell(dir, spec, cell);
    return unpublishedDoneFrame(worker, jobId, spec, cell);
}

/** Sends one frame on a socket every 50 ms until destroyed. */
class Pinger
{
  public:
    Pinger(FrameSocket &socket, Json frame)
        : thread_([this, &socket, frame] {
              while (!stop_ && socket.sendFrame(frame))
                  std::this_thread::sleep_for(50ms);
          })
    {
    }

    ~Pinger()
    {
        stop_ = true;
        thread_.join();
    }

    Pinger(const Pinger &) = delete;
    Pinger &operator=(const Pinger &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** A shard counter (or the daemon-level one, for "serve"). */
std::uint64_t
statValue(ServeClient &client, const std::string &group,
          const std::string &name)
{
    Json doc;
    std::string error;
    EXPECT_TRUE(client.stats(&doc, &error)) << error;
    for (const Json &g : doc["groups"].items())
        if (g["name"].asString() == group)
            for (const Json &stat : g["stats"].items())
                if (stat["name"].asString() == name)
                    return stat["value"].asU64();
    return 0;
}

TEST(ServePush, ParkedLeaseIsAnsweredWhenAJobArrives)
{
    TempDir td;
    FrameSocket worker;      // outlives its receive thread...
    std::future<Json> work;  // ...which ends when the daemon stops
    LiveDaemon daemon(td.dir.string());
    attachWorker(worker, daemon.address(), "w1");

    // No job yet: the lease waits without a reply.
    ASSERT_TRUE(worker.sendFrame(workerFrame("lease", "w1")));
    work = nextFrame(worker);
    EXPECT_FALSE(arrivesWithin(work, 100ms));

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(tinySpec(), &submitted, &error)) << error;

    ASSERT_TRUE(arrivesWithin(work, 10000ms));
    const Json reply = work.get();
    EXPECT_EQ(reply["type"].asString(), "work");
    EXPECT_EQ(reply["job"].asString(), submitted.jobId);
    EXPECT_TRUE(reply["spec"].isObject());
}

TEST(ServePush, EveryWorkFrameCarriesItsSpec)
{
    TempDir td;
    FrameSocket worker;
    LiveDaemon daemon(td.dir.string());
    attachWorker(worker, daemon.address(), "w1");

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(tinySpec(), &submitted, &error)) << error;

    // Two cells of one job on one connection: the daemon keeps no
    // record of which specs a connection has seen, so both carry it.
    const std::string spec =
        serve::resolveSpec(tinySpec()).toJson().dump(0);
    for (std::uint64_t cell : {0u, 1u}) {
        ASSERT_TRUE(worker.sendFrame(workerFrame("lease", "w1")));
        Json work;
        ASSERT_TRUE(worker.recvFrame(&work, &error)) << error;
        ASSERT_EQ(work["type"].asString(), "work");
        EXPECT_EQ(work["job"].asString(), submitted.jobId);
        EXPECT_EQ(work["cell"].asU64(), cell);
        EXPECT_EQ(work["spec"].dump(0), spec) << "cell " << cell;
    }
}

TEST(ServePush, SpecPastTheCellCapIsRejectedAndTheDaemonServesOn)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());

    // Five axes of 100 equal entries: 10^10 cells in about 5 KB.
    Json doc = tinySpec().toJson();
    Json grid = doc["grids"].at(0);
    for (const char *axis :
         {"benchmarks", "kinds", "clocks", "nodes", "gating"}) {
        Json copies = Json::array();
        for (int i = 0; i < 100; ++i)
            copies.push(grid[axis].at(0));
        grid.set(axis, std::move(copies));
    }
    Json grids = Json::array();
    grids.push(std::move(grid));
    doc.set("grids", std::move(grids));

    FrameSocket peer;
    std::string error;
    ASSERT_TRUE(peer.connectTo(daemon.address(), &error)) << error;
    Json submit = frameOf("submit");
    submit.add("v", serve::kServeSchema);
    submit.add("spec", doc);
    ASSERT_TRUE(peer.sendFrame(submit));
    Json reply;
    ASSERT_TRUE(peer.recvFrame(&reply, &error)) << error;
    EXPECT_EQ(reply["type"].asString(), "error");
    EXPECT_NE(reply["error"].asString().find("10000000000 cells"),
              std::string::npos)
        << reply["error"].asString();

    // The daemon is still up and answering.
    ServeClient client;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    EXPECT_EQ(statValue(client, "serve", "framesRejected"), 1u);
}

TEST(ServePush, HeldBackSiblingGoesToTheParkedWorkerOnDone)
{
    // One run at two tech nodes: two cells, one simulation.
    ExperimentSpec spec;
    spec.name = "serve_push_siblings";
    spec.title = "serve push sibling test";
    GridSpec grid;
    grid.benchmarks = {"gzip"};
    grid.kinds = {CoreKind::Baseline};
    grid.nodes = {TechNode::N130, TechNode::N90};
    spec.grids.push_back(grid);
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 5000;

    TempDir td;
    FrameSocket w1;
    FrameSocket w2;
    std::future<Json> w2Work;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    attachWorker(w2, daemon.address(), "w2");

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(spec, &submitted, &error)) << error;
    ASSERT_EQ(submitted.cells, 2u);

    ASSERT_TRUE(w1.sendFrame(workerFrame("lease", "w1")));
    Json w1Work;
    ASSERT_TRUE(w1.recvFrame(&w1Work, &error)) << error;
    ASSERT_EQ(w1Work["type"].asString(), "work");
    const std::size_t first = std::size_t(w1Work["cell"].asU64());

    // w1 holds the run, so w2's lease for its sibling waits...
    ASSERT_TRUE(w2.sendFrame(workerFrame("lease", "w2")));
    w2Work = nextFrame(w2);
    EXPECT_FALSE(arrivesWithin(w2Work, 100ms));

    // ...until w1 reports it; w2 does not ask again.
    ASSERT_TRUE(w1.sendFrame(doneFrame(td.dir.string(), "w1",
                                       submitted.jobId, spec, first)));
    Json ack;
    ASSERT_TRUE(w1.recvFrame(&ack, &error)) << error;
    EXPECT_EQ(ack["type"].asString(), "ack");
    ASSERT_TRUE(arrivesWithin(w2Work, 10000ms));
    const Json reply = w2Work.get();
    EXPECT_EQ(reply["type"].asString(), "work");
    EXPECT_EQ(reply["job"].asString(), submitted.jobId);
    EXPECT_EQ(reply["cell"].asU64(), 1u - first);
}

TEST(ServePush, StatusWaitAnswersOnCompletionAndAtItsDeadline)
{
    TempDir td;
    FrameSocket waiter;
    std::future<Json> status;
    LiveDaemon daemon(td.dir.string());

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(tinySpec(), &submitted, &error)) << error;

    // No worker: the job cannot finish, so the wait runs out.
    ASSERT_TRUE(waiter.connectTo(daemon.address(), &error)) << error;
    Json ask = frameOf("status");
    ask.add("job", submitted.jobId);
    ask.add("wait", 0.05);
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(waiter.sendFrame(ask));
    Json reply;
    ASSERT_TRUE(waiter.recvFrame(&reply, &error)) << error;
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_EQ(reply["type"].asString(), "status");
    EXPECT_EQ(reply["state"].asString(), "running");
    EXPECT_EQ(reply["cells"].asU64(), 4u);
    EXPECT_EQ(reply["pending"].asU64(), 4u);
    // Per-worker counters live in the stats frame only.
    EXPECT_FALSE(reply.has("shards"));
    EXPECT_GE(waited, 0.05);

    // A long wait is answered as soon as a worker finishes the job.
    Json askLong = frameOf("status");
    askLong.add("job", submitted.jobId);
    askLong.add("wait", 30.0);
    ASSERT_TRUE(waiter.sendFrame(askLong));
    status = nextFrame(waiter);
    serve::WorkerOptions wo;
    wo.connect = daemon.address();
    wo.name = "wS";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });
    const bool answered = arrivesWithin(status, 10000ms);
    // Let the job end either way before stopping: a worker that is
    // still connecting would wait on the stopped daemon forever.
    EXPECT_TRUE(client.waitForCompletion(submitted.jobId, 0.05, nullptr,
                                         &error))
        << error;
    daemon.stop();
    worker.join();
    ASSERT_TRUE(answered);
    const Json done = status.get();
    EXPECT_EQ(done["state"].asString(), "complete");
    EXPECT_EQ(done["done"].asU64(), 4u);
    EXPECT_EQ(rc, 0);
}

TEST(ServePush, ExpiredLeaseGoesToTheParkedWorkerAndCountsOnItsShard)
{
    TempDir td;
    FrameSocket w1;
    FrameSocket w2;
    std::future<Json> w2Work;
    ServeOptions options;
    options.leaseTimeout = 0.3;  // workers would ping every 25 ms
    LiveDaemon daemon(td.dir.string(), options);
    attachWorker(w1, daemon.address(), "w1");
    attachWorker(w2, daemon.address(), "w2");

    const ExperimentSpec spec = oneCellSpec();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(spec, &submitted, &error)) << error;
    ASSERT_EQ(submitted.cells, 1u);

    // w1 takes the only cell and goes silent; w2 waits for work.
    ASSERT_TRUE(w1.sendFrame(workerFrame("lease", "w1")));
    Json w1Work;
    ASSERT_TRUE(w1.recvFrame(&w1Work, &error)) << error;
    ASSERT_EQ(w1Work["type"].asString(), "work");
    ASSERT_TRUE(w2.sendFrame(workerFrame("lease", "w2")));
    w2Work = nextFrame(w2);

    // A connection that never said hello pings in w1's name; that
    // must not keep w1's lease alive.
    FrameSocket stranger;
    ASSERT_TRUE(stranger.connectTo(daemon.address(), &error)) << error;
    Pinger pinger(stranger, workerFrame("ping", "w1"));

    // The expiry hands the cell to w2 and is charged to w1's shard.
    ASSERT_TRUE(arrivesWithin(w2Work, 10000ms));
    const Json reply = w2Work.get();
    ASSERT_EQ(reply["type"].asString(), "work");
    ASSERT_EQ(reply["cell"].asU64(), 0u);
    // w2 reports at once, so its own lease cannot lapse as well.
    ASSERT_TRUE(w2.sendFrame(
        doneFrame(td.dir.string(), "w2", submitted.jobId, spec, 0)));
    Json ack;
    ASSERT_TRUE(w2.recvFrame(&ack, &error)) << error;
    EXPECT_EQ(ack["type"].asString(), "ack");
    EXPECT_EQ(statValue(client, "serve.shard.w1", "leasesExpired"), 1u);
    EXPECT_EQ(statValue(client, "serve.shard.w2", "leasesExpired"), 0u);
    EXPECT_EQ(statValue(client, "serve", "leasesExpired"), 1u);
    EXPECT_GT(statValue(client, "serve", "framesRejected"), 0u);
}

TEST(ServePush, ShutdownAnswersAParkedLeaseWithBye)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());
    serve::WorkerOptions wo;
    wo.connect = daemon.address();
    wo.name = "wBye";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });

    // Let the worker say hello and park its lease (there is no job):
    // two frames besides the stats requests this loop sends.  No
    // ASSERT until the worker thread is joined.
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(daemon.address(), &error)) << error;
    for (std::uint64_t asked = 1;
         asked < 1000 &&
         statValue(client, "serve", "framesHandled") < asked + 2;
         ++asked)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(client.shutdown(&error)) << error;
    daemon.stop();
    worker.join();
    EXPECT_EQ(rc, 0);
}

TEST(ServePush, ParkedRequestHoldsLaterFramesButNotPings)
{
    TempDir td;
    FrameSocket worker;
    std::future<Json> first;
    LiveDaemon daemon(td.dir.string());
    attachWorker(worker, daemon.address(), "w1");

    // A parked lease, then a ping and a stats request behind it.
    ASSERT_TRUE(worker.sendFrame(workerFrame("lease", "w1")));
    ASSERT_TRUE(worker.sendFrame(workerFrame("ping", "w1")));
    ASSERT_TRUE(worker.sendFrame(frameOf("stats")));
    first = nextFrame(worker);
    EXPECT_FALSE(arrivesWithin(first, 100ms));

    // The ping was handled; the stats request still waits.  Counted:
    // hello, lease, ping and this client's own stats request.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    EXPECT_EQ(statValue(client, "serve", "framesHandled"), 4u);

    // Work arrives, and only then the stats reply: request order.
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(tinySpec(), &submitted, &error)) << error;
    ASSERT_TRUE(arrivesWithin(first, 10000ms));
    EXPECT_EQ(first.get()["type"].asString(), "work");
    Json second;
    ASSERT_TRUE(worker.recvFrame(&second, &error)) << error;
    EXPECT_EQ(second["type"].asString(), "stats");
}

/**
 * Submit @p spec through @p client and lease its first cell on the
 * attached worker socket @p worker named @p name; the job id.
 */
std::string
submitAndLease(ServeClient &client, FrameSocket &worker,
               const std::string &name, const ExperimentSpec &spec)
{
    std::string error;
    ServeClient::Submitted submitted;
    EXPECT_TRUE(client.submit(spec, &submitted, &error)) << error;
    EXPECT_TRUE(worker.sendFrame(workerFrame("lease", name)));
    Json work;
    EXPECT_TRUE(worker.recvFrame(&work, &error)) << error;
    EXPECT_EQ(work["type"].asString(), "work");
    return submitted.jobId;
}

/** The reply to @p frame sent on @p socket. */
Json
exchange(FrameSocket &socket, const Json &frame)
{
    Json reply;
    std::string error;
    EXPECT_TRUE(socket.sendFrame(frame));
    EXPECT_TRUE(socket.recvFrame(&reply, &error)) << error;
    return reply;
}

TEST(ServePush, DoneIsJournaledOnlyOnceItsResultLoadsFromTheStore)
{
    TempDir td;
    FrameSocket w1;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    const ExperimentSpec spec = oneCellSpec();
    const std::string jobId = submitAndLease(client, w1, "w1", spec);
    const std::string journal = serve::journalPath(td / "store", jobId);

    // Reported but never published (say, by a worker on another
    // store): refused, naming the file, and nothing is journaled.
    const Json done = unpublishedDoneFrame("w1", jobId, spec, 0);
    Json reply = exchange(w1, done);
    EXPECT_EQ(reply["type"].asString(), "error");
    const std::string file = ResultStore(td / "store/results")
                                 .pathFor(done["key"].asString());
    EXPECT_NE(reply["error"].asString().find(file), std::string::npos)
        << reply["error"].asString();
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(journal, &state, &error)) << error;
    EXPECT_TRUE(state.entries.empty());
    Json status;
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "running");

    // Once the result is published, the same report is acked and ends
    // the job.
    publishCell(td.dir.string(), spec, 0);
    reply = exchange(w1, done);
    EXPECT_EQ(reply["type"].asString(), "ack");
    ASSERT_TRUE(serve::journalLoad(journal, &state, &error)) << error;
    EXPECT_EQ(state.uniqueCompleted(), 1u);
    EXPECT_TRUE(state.complete);
}

TEST(ServePush, DoneIsAckedOnlyOnceTheJournalHoldsIt)
{
    TempDir td;
    FrameSocket w1;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    const ExperimentSpec spec = oneCellSpec();
    const std::string jobId = submitAndLease(client, w1, "w1", spec);
    const std::string journal = serve::journalPath(td / "store", jobId);

    // A directory in the journal's place takes no record: the report
    // is refused, naming the journal, and the job runs on.
    const std::string aside = journal + ".aside";
    fs::rename(journal, aside);
    fs::create_directory(journal);
    const Json done = doneFrame(td.dir.string(), "w1", jobId, spec, 0);
    Json reply = exchange(w1, done);
    EXPECT_EQ(reply["type"].asString(), "error");
    EXPECT_NE(reply["error"].asString().find(journal), std::string::npos)
        << reply["error"].asString();
    Json status;
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "running");

    // With the journal back, the resent report is acked and ends the
    // job.
    fs::remove(journal);
    fs::rename(aside, journal);
    reply = exchange(w1, done);
    EXPECT_EQ(reply["type"].asString(), "ack");
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "complete");
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(journal, &state, &error)) << error;
    EXPECT_EQ(state.uniqueCompleted(), 1u);
    EXPECT_TRUE(state.complete);
}

TEST(ServePush, LateDoneForAFinishedJobIsAcked)
{
    TempDir td;
    FrameSocket w1;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    const ExperimentSpec spec = oneCellSpec();
    const std::string jobId = submitAndLease(client, w1, "w1", spec);

    // The second report comes after the first one finished the job.
    const Json done = doneFrame(td.dir.string(), "w1", jobId, spec, 0);
    EXPECT_EQ(exchange(w1, done)["type"].asString(), "ack");
    EXPECT_EQ(exchange(w1, done)["type"].asString(), "ack");
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(serve::journalPath(td / "store", jobId),
                                   &state, &error))
        << error;
    EXPECT_EQ(state.entries.size(), 1u);
    EXPECT_EQ(statValue(client, "serve.shard.w1", "cellsCompleted"), 2u);
}

TEST(ServePush, CancellingAFinishedJobLeavesItComplete)
{
    TempDir td;
    FrameSocket w1;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    const ExperimentSpec spec = oneCellSpec();
    const std::string jobId = submitAndLease(client, w1, "w1", spec);
    ASSERT_EQ(
        exchange(w1, doneFrame(td.dir.string(), "w1", jobId, spec, 0))
            ["type"].asString(),
        "ack");

    EXPECT_FALSE(client.cancel(jobId, &error));
    EXPECT_NE(error.find("job '" + jobId + "' is complete"),
              std::string::npos)
        << error;
    Json status;
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "complete");
    EXPECT_EQ(status["done"].asU64(), 1u);

    // Resubmitting replays the finished journal, and a wait succeeds.
    ServeClient::Submitted again;
    ASSERT_TRUE(client.submit(spec, &again, &error)) << error;
    EXPECT_EQ(again.jobId, jobId);
    EXPECT_TRUE(again.resumed);
    EXPECT_TRUE(client.waitForCompletion(jobId, 0.05, nullptr, &error))
        << error;
}

TEST(ServePush, CancelledJobLeavesTheDaemonAndALateDoneIsAcked)
{
    TempDir td;
    FrameSocket w1;
    LiveDaemon daemon(td.dir.string());
    attachWorker(w1, daemon.address(), "w1");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    const ExperimentSpec spec = tinySpec();
    const std::string jobId = submitAndLease(client, w1, "w1", spec);

    ASSERT_TRUE(client.cancel(jobId, &error)) << error;
    Json status;
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "cancelled");
    EXPECT_EQ(status["cells"].asU64(), 4u);
    EXPECT_EQ(status["done"].asU64(), 0u);
    std::string json, csv;
    EXPECT_FALSE(client.results(jobId, &json, &csv, &error));
    EXPECT_NE(error.find("is cancelled"), std::string::npos) << error;
    EXPECT_TRUE(client.cancel(jobId, &error)) << error;

    // The worker finishes the cell it leased before the cancel: its
    // report is acked and counted, but not journaled.
    EXPECT_EQ(
        exchange(w1, doneFrame(td.dir.string(), "w1", jobId, spec, 0))
            ["type"].asString(),
        "ack");
    EXPECT_EQ(statValue(client, "serve.shard.w1", "cellsCompleted"), 1u);
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(serve::journalPath(td / "store", jobId),
                                   &state, &error))
        << error;
    EXPECT_TRUE(state.cancelled);
    EXPECT_FALSE(state.complete);
    EXPECT_EQ(state.entries.size(), 0u);
}

TEST(ServePush, SpecOverTheDeliveryLimitIsRefusedAtSubmit)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());

    // 40 x 100 = 4,000 cells: no frame can carry their table, however
    // small the rows.
    ExperimentSpec spec = oneCellSpec();
    spec.grids[0].benchmarks.assign(40, "gzip");
    spec.grids[0].clocks.assign(100, ClockPoint{});
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    EXPECT_FALSE(client.submit(spec, &submitted, &error));
    EXPECT_NE(error.find("4000 cells"), std::string::npos) << error;
    EXPECT_NE(error.find("at most 3647"), std::string::npos) << error;
    EXPECT_EQ(statValue(client, "serve", "framesRejected"), 1u);
    EXPECT_FALSE(fs::exists(serve::journalPath(
        td / "store", serve::jobIdFor(serve::resolveSpec(spec)))));
}

TEST(ServePush, ReplyOverTheFrameCapIsAnErrorAndTheDaemonServesOn)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());
    serve::WorkerOptions wo;
    wo.connect = daemon.address();
    wo.name = "wBig";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });

    // Four cells whose rows each carry a 2 MiB label: the spec fits a
    // frame, and its table (JSON and CSV) does not.  No ASSERT until
    // the worker thread is joined.
    ExperimentSpec spec = tinySpec();
    spec.grids[0].label.assign(std::size_t(2) << 20, 'x');
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(daemon.address(), &error)) << error;
    ServeClient::Submitted submitted;
    EXPECT_TRUE(client.submit(spec, &submitted, &error)) << error;
    EXPECT_TRUE(client.waitForCompletion(submitted.jobId, 0.05, nullptr,
                                         &error))
        << error;
    std::string json;
    EXPECT_FALSE(client.results(submitted.jobId, &json, nullptr, &error));
    EXPECT_NE(error.find("'table' reply of "), std::string::npos)
        << error;
    EXPECT_NE(error.find("exceeds the frame cap of 8388608"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("flywheel_bench --spec FILE --cache " +
                         td / "store" + "/results"),
              std::string::npos)
        << error;

    Json doc;
    EXPECT_TRUE(client.stats(&doc, &error)) << error;
    EXPECT_TRUE(client.shutdown(&error)) << error;
    daemon.stop();
    worker.join();
    EXPECT_EQ(rc, 0);
}

TEST(ServePush, VersionOnePeersAreRejected)
{
    // v2 and v3 peers too: v3 made `work.spec` mandatory (a v2 daemon
    // sends it only once per job and connection), and a v3 worker's
    // done carries a result and expects no check of the store.
    TempDir td;
    LiveDaemon daemon(td.dir.string());
    std::string error;
    for (const char *version :
         {"flywheel.serve.v1", "flywheel.serve.v2", "flywheel.serve.v3"}) {
        for (const char *type : {"hello", "submit"}) {
            FrameSocket peer;
            ASSERT_TRUE(peer.connectTo(daemon.address(), &error))
                << error;
            Json frame = workerFrame(type, "old");
            frame.add("v", version);
            frame.add("spec", tinySpec().toJson());
            ASSERT_TRUE(peer.sendFrame(frame));
            Json reply;
            ASSERT_TRUE(peer.recvFrame(&reply, &error)) << error;
            EXPECT_EQ(reply["type"].asString(), "error")
                << version << " " << type;
            EXPECT_NE(
                reply["error"].asString().find("flywheel.serve.v4"),
                std::string::npos);
        }
    }
}

// -------------------------------------------------------- end-to-end

TEST(ServeEndToEnd, DistributedRunMatchesLocalByteForByte)
{
    TempDir td;
    ServeOptions options;
    options.storeDir = td / "store";
    std::string error;
    ASSERT_TRUE(serve::parseServeAddress(td / "serve.sock",
                                         &options.listen, &error))
        << error;

    ServeDaemon daemon(options);
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::thread serverThread([&daemon] { daemon.run(); });

    // Two in-process workers sharing the daemon's store.
    serve::WorkerOptions wo;
    wo.connect = daemon.boundAddress();
    wo.name = "wA";
    serve::WorkerOptions wo2 = wo;
    wo2.name = "wB";
    int rcA = -1;
    int rcB = -1;
    std::thread workerA([&] { rcA = serve::runWorker(wo); });
    std::thread workerB([&] { rcB = serve::runWorker(wo2); });

    const ExperimentSpec spec = tinySpec();
    ServeClient client;
    ASSERT_TRUE(client.connect(daemon.boundAddress(), &error))
        << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(spec, &submitted, &error)) << error;
    EXPECT_EQ(submitted.cells, 4u);
    EXPECT_FALSE(submitted.resumed);

    ASSERT_TRUE(client.waitForCompletion(submitted.jobId, 0.02,
                                         nullptr, &error))
        << error;
    std::string servedJson;
    std::string servedCsv;
    ASSERT_TRUE(client.results(submitted.jobId, &servedJson,
                               &servedCsv, &error))
        << error;

    // Resubmitting a finished spec attaches: same id, same table,
    // nothing re-runs.
    ServeClient::Submitted again;
    ASSERT_TRUE(client.submit(spec, &again, &error)) << error;
    EXPECT_EQ(again.jobId, submitted.jobId);
    EXPECT_TRUE(again.resumed);

    // Shard stats surfaced through the stats frame.
    Json statsDoc;
    ASSERT_TRUE(client.stats(&statsDoc, &error)) << error;
    EXPECT_TRUE(statsDoc["groups"].isArray());

    ASSERT_TRUE(client.shutdown(&error)) << error;
    serverThread.join();
    workerA.join();
    workerB.join();
    EXPECT_EQ(rcA, 0);  // both workers got a clean `bye`
    EXPECT_EQ(rcB, 0);

    // The daemon's results/ directory is an ordinary result store: a
    // local Session reading it answers every cell without simulating,
    // and its table is byte-identical to the served one.
    SessionOptions cached;
    cached.cacheDir = options.storeDir + "/results";
    Session session(cached);
    SweepTable local = session.run(spec);
    for (const SweepRecord &row : local.rows())
        EXPECT_TRUE(row.fromCache) << row.point.bench;
    std::ostringstream localJson;
    local.writeJson(localJson);
    EXPECT_EQ(servedJson, localJson.str());
    std::ostringstream localCsv;
    local.writeCsv(localCsv);
    EXPECT_EQ(servedCsv, localCsv.str());

    // The journal on disk records the whole job as complete.
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(
        serve::journalPath(options.storeDir, submitted.jobId), &state,
        &error))
        << error;
    EXPECT_TRUE(state.complete);
    EXPECT_EQ(state.uniqueCompleted(), 4u);
}

TEST(ServeEndToEnd, CancelledSpecResubmitsAndCompletes)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;

    // Submit, let one cell finish, cancel while the rest wait.
    const ExperimentSpec spec = tinySpec();
    FrameSocket w1;
    attachWorker(w1, daemon.address(), "w1");
    const std::string jobId = submitAndLease(client, w1, "w1", spec);
    ASSERT_EQ(
        exchange(w1, doneFrame(td.dir.string(), "w1", jobId, spec, 0))
            ["type"].asString(),
        "ack");
    ASSERT_TRUE(client.cancel(jobId, &error)) << error;

    // The resubmitted spec resumes from the journal and completes.
    serve::WorkerOptions wo;
    wo.connect = daemon.address();
    wo.name = "wA";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });
    ServeClient::Submitted again;
    ASSERT_TRUE(client.submit(spec, &again, &error)) << error;
    EXPECT_EQ(again.jobId, jobId);
    EXPECT_TRUE(again.resumed);
    EXPECT_TRUE(client.waitForCompletion(jobId, 0.05, nullptr, &error))
        << error;
    std::string servedJson, servedCsv;
    EXPECT_TRUE(client.results(jobId, &servedJson, &servedCsv, &error))
        << error;
    ASSERT_TRUE(client.shutdown(&error)) << error;
    worker.join();
    EXPECT_EQ(rc, 0);

    // Equal to the single-process table (flywheel_bench --spec).
    Session session{SessionOptions{}};
    const SweepTable local = session.run(spec);
    std::ostringstream localJson, localCsv;
    local.writeJson(localJson);
    local.writeCsv(localCsv);
    EXPECT_EQ(servedJson, localJson.str());
    EXPECT_EQ(servedCsv, localCsv.str());

    JournalState state;
    ASSERT_TRUE(serve::journalLoad(serve::journalPath(td / "store", jobId),
                                   &state, &error))
        << error;
    EXPECT_TRUE(state.cancelled);
    EXPECT_TRUE(state.complete);
    EXPECT_EQ(state.uniqueCompleted(), 4u);
}

TEST(ServeEndToEnd, SiblingCellsSimulateOnceForAnyLeaseOrder)
{
    TempDir td;
    ServeOptions options;
    options.storeDir = td / "store";
    std::string error;
    ASSERT_TRUE(serve::parseServeAddress(td / "serve.sock",
                                         &options.listen, &error))
        << error;
    ServeDaemon daemon(options);
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::thread serverThread([&daemon] { daemon.run(); });

    // Six cells that differ only in tech node and gating simulate one
    // run.  Every cell ties for the first lease, so without holding
    // siblings back all three workers would start the run at once.
    ExperimentSpec spec;
    spec.name = "serve_siblings";
    spec.title = "serve sibling test";
    GridSpec grid;
    grid.benchmarks = {"gzip"};
    grid.kinds = {CoreKind::Flywheel};
    grid.nodes = {TechNode::N130, TechNode::N90, TechNode::N60};
    grid.gating = {false, true};
    spec.grids.push_back(grid);
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 20000;

    std::vector<std::thread> workers;
    for (const char *name : {"wA", "wB", "wC"}) {
        serve::WorkerOptions wo;
        wo.connect = daemon.boundAddress();
        wo.name = name;
        workers.emplace_back([wo] { serve::runWorker(wo); });
    }

    ServeClient client;
    ASSERT_TRUE(client.connect(daemon.boundAddress(), &error))
        << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(spec, &submitted, &error)) << error;
    ASSERT_EQ(submitted.cells, 6u);
    ASSERT_TRUE(client.waitForCompletion(submitted.jobId, 0.02,
                                         nullptr, &error))
        << error;
    std::string servedJson;
    std::string servedCsv;
    ASSERT_TRUE(client.results(submitted.jobId, &servedJson,
                               &servedCsv, &error))
        << error;

    std::uint64_t completed = 0;
    std::uint64_t hits = 0;
    Json statsDoc;
    ASSERT_TRUE(client.stats(&statsDoc, &error)) << error;
    for (const Json &g : statsDoc["groups"].items()) {
        if (g["name"].asString().rfind("serve.shard.", 0) != 0)
            continue;
        for (const Json &stat : g["stats"].items()) {
            if (stat["name"].asString() == "cellsCompleted")
                completed += stat["value"].asU64();
            if (stat["name"].asString() == "storeHits")
                hits += stat["value"].asU64();
        }
    }
    EXPECT_EQ(completed, 6u);
    EXPECT_EQ(completed - hits, 1u);  // one simulation

    ASSERT_TRUE(client.shutdown(&error)) << error;
    serverThread.join();
    for (std::thread &w : workers)
        w.join();

    // Still byte-identical to a local run.
    Session session;
    std::ostringstream localJson;
    session.run(spec).writeJson(localJson);
    EXPECT_EQ(servedJson, localJson.str());
}

TEST(ServeEndToEnd, RestartedServerResumesFromTheJournal)
{
    TempDir td;
    const ExperimentSpec spec = tinySpec();
    const std::string store = td / "store";
    std::string error;

    // First life: run half the job, then stop the daemon the polite
    // way (the journal survives either way — kill -9 is exercised in
    // CI where a process boundary exists).
    const ExperimentSpec resolved = serve::resolveSpec(spec);
    const std::string jobId = serve::jobIdFor(resolved);
    {
        std::vector<SweepPoint> points = resolved.expand();
        ASSERT_EQ(points.size(), 4u);
        fs::create_directories(store);  // the daemon is not up yet
        ResultStore rs(store + "/results");
        JournalWriter writer;
        ASSERT_TRUE(writer.open(store, jobId, resolved,
                                points.size(), &error))
            << error;
        // Complete cells 0 and 2 by hand: result first, then journal
        // — exactly the worker/server ordering.
        for (std::size_t cell : {std::size_t(0), std::size_t(2)}) {
            CellExecutor exec(nullptr, nullptr);
            const RunResult r = exec.run(points[cell].config);
            const std::string key = configKey(points[cell].config);
            ASSERT_TRUE(rs.save(key, r));
            ASSERT_TRUE(writer.append(cell, key, 0.01));
        }
    }

    // Second life: a fresh daemon + worker on the same store must
    // resume (2 cells replayed), run only the rest, and finalize.
    ServeOptions options;
    options.storeDir = store;
    ASSERT_TRUE(serve::parseServeAddress(td / "serve2.sock",
                                         &options.listen, &error));
    ServeDaemon daemon(options);
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::thread serverThread([&daemon] { daemon.run(); });
    serve::WorkerOptions wo;
    wo.connect = daemon.boundAddress();
    wo.name = "wR";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });

    ServeClient client;
    ASSERT_TRUE(client.connect(daemon.boundAddress(), &error))
        << error;
    ServeClient::Submitted submitted;
    ASSERT_TRUE(client.submit(spec, &submitted, &error)) << error;
    EXPECT_EQ(submitted.jobId, jobId);
    EXPECT_TRUE(submitted.resumed);
    ASSERT_TRUE(client.waitForCompletion(submitted.jobId, 0.02,
                                         nullptr, &error))
        << error;
    std::string servedJson;
    ASSERT_TRUE(client.results(submitted.jobId, &servedJson, nullptr,
                               &error))
        << error;
    ASSERT_TRUE(client.shutdown(&error)) << error;
    serverThread.join();
    worker.join();
    EXPECT_EQ(rc, 0);

    // Byte-identical to an uninterrupted local run.
    Session session(SessionOptions{});
    std::ostringstream localJson;
    session.run(spec).writeJson(localJson);
    EXPECT_EQ(servedJson, localJson.str());

    // The journal only ever grew: 2 replayed + 2 fresh completions.
    JournalState state;
    ASSERT_TRUE(serve::journalLoad(serve::journalPath(store, jobId),
                                   &state, &error))
        << error;
    EXPECT_TRUE(state.complete);
    EXPECT_EQ(state.uniqueCompleted(), 4u);
}

/** Open descriptors of this process. */
std::size_t
openDescriptors()
{
    std::size_t n = 0;
    for (auto it = fs::directory_iterator("/proc/self/fd");
         it != fs::directory_iterator(); ++it)
        ++n;
    return n;
}

TEST(ServeEndToEnd, FinishedJobsHoldNoDescriptors)
{
    TempDir td;
    LiveDaemon daemon(td.dir.string());
    serve::WorkerOptions wo;
    wo.connect = daemon.address();
    wo.name = "wFd";
    int rc = -1;
    std::thread worker([&] { rc = serve::runWorker(wo); });

    // 200 distinct one-cell jobs in sequence.  They differ only in
    // name, so one simulates and the rest are store hits.  No ASSERT
    // until the worker thread is joined.
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(daemon.address(), &error)) << error;
    std::string firstId, firstJson, firstCsv;
    std::size_t afterTen = 0;
    for (int job = 1; job <= 200; ++job) {
        ServeClient::Submitted submitted;
        std::string json, csv;
        const bool ran =
            client.submit(oneCellSpec("fd_" + std::to_string(job)),
                          &submitted, &error) &&
            client.waitForCompletion(submitted.jobId, 0.05, nullptr,
                                     &error) &&
            client.results(submitted.jobId, &json, &csv, &error);
        EXPECT_TRUE(ran) << "job " << job << ": " << error;
        if (!ran)
            break;
        if (job == 1) {
            firstId = submitted.jobId;
            firstJson = json;
            firstCsv = csv;
        }
        if (job == 10)
            afterTen = openDescriptors();
    }
    EXPECT_EQ(openDescriptors(), afterTen);

    // The first job still answers, with its first table.
    std::string json, csv;
    EXPECT_TRUE(client.results(firstId, &json, &csv, &error)) << error;
    EXPECT_EQ(json, firstJson);
    EXPECT_EQ(csv, firstCsv);

    EXPECT_TRUE(client.shutdown(&error)) << error;
    daemon.stop();
    worker.join();
    EXPECT_EQ(rc, 0);
}

TEST(ServeEndToEnd, RestartedDaemonAnswersForAJobItDidNotRun)
{
    TempDir td;
    const ExperimentSpec spec = oneCellSpec();
    std::string error;
    std::string jobId, servedJson, servedCsv;
    {
        FrameSocket w1;
        LiveDaemon daemon(td.dir.string());
        attachWorker(w1, daemon.address(), "w1");
        ServeClient client;
        ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
        jobId = submitAndLease(client, w1, "w1", spec);
        ASSERT_EQ(exchange(w1, doneFrame(td.dir.string(), "w1", jobId,
                                         spec, 0))["type"]
                      .asString(),
                  "ack");
        ASSERT_TRUE(client.results(jobId, &servedJson, &servedCsv,
                                   &error))
            << error;
    }

    // A fresh daemon on the same store, and no resubmission.
    LiveDaemon daemon(td.dir.string());
    ServeClient client;
    ASSERT_TRUE(client.connect(daemon.address(), &error)) << error;
    Json status;
    ASSERT_TRUE(client.status(jobId, &status, &error)) << error;
    EXPECT_EQ(status["state"].asString(), "complete");
    EXPECT_EQ(status["cells"].asU64(), 1u);
    EXPECT_EQ(status["done"].asU64(), 1u);
    std::string json, csv;
    ASSERT_TRUE(client.results(jobId, &json, &csv, &error)) << error;
    EXPECT_EQ(json, servedJson);
    EXPECT_EQ(csv, servedCsv);

    // Only a job id's spelling names a file: a path that reaches a
    // planted copy of a finished journal is an unknown job.
    fs::create_directories(td.dir / "store" / "job-");
    fs::copy_file(serve::journalPath(td / "store", jobId),
                  td / "store/decoy.json");
    for (const std::string id : {"../x", "/../decoy"}) {
        EXPECT_FALSE(client.status(id, &status, &error)) << id;
        EXPECT_NE(error.find("unknown job"), std::string::npos) << error;
        EXPECT_FALSE(client.results(id, &json, nullptr, &error)) << id;
        EXPECT_NE(error.find("unknown job"), std::string::npos) << error;
    }
}

} // namespace
} // namespace flywheel
