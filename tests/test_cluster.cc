/**
 * @file
 * Cluster-tier tests: placement properties, admission control, and a
 * real two-process-shaped (two in-process server instances) router
 * exercising the full failover machinery.
 *
 * The placement half is property-based: a consistent-hash ring must
 * be deterministic across builds (same membership -> same lookups),
 * must move only ~K/N keys on a join -- every moved key landing on
 * the joining node -- and must leave unmoved keys exactly where they
 * were on a leave.  The router half drives real RimeServer event
 * loops over TCP: rank -> drain -> rank again must continue exactly
 * where extraction stopped (no duplicated, no lost committed
 * values), resume tokens must reattach a dropped connection's
 * session, and tenant quotas must shed over-cap submissions without
 * blocking the rest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hh"
#include "common/rng.hh"
#include "net/server.hh"
#include "service/placement.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::cluster;
using namespace rime::service;
using namespace rime::net;

namespace
{

// ----------------------------------------------------------------------
// Consistent-hash placement properties
// ----------------------------------------------------------------------

constexpr std::size_t kKeys = 4096;

std::vector<std::uint64_t>
propertyKeys()
{
    std::vector<std::uint64_t> keys(kKeys);
    Rng rng(1234);
    for (auto &k : keys)
        k = rng();
    return keys;
}

TEST(HashRing, DeterministicAcrossInstances)
{
    HashRing a, b;
    for (unsigned n = 0; n < 5; ++n) {
        a.addNode(n);
        b.addNode(n);
    }
    for (const std::uint64_t key : propertyKeys())
        EXPECT_EQ(a.lookup(key), b.lookup(key));
}

TEST(HashRing, JoinMovesOnlyItsShare)
{
    constexpr unsigned kNodes = 4;
    HashRing before;
    for (unsigned n = 0; n < kNodes; ++n)
        before.addNode(n);
    HashRing after = before;
    after.addNode(kNodes);

    const auto keys = propertyKeys();
    std::size_t moved = 0;
    for (const std::uint64_t key : keys) {
        const unsigned was = before.lookup(key);
        const unsigned now = after.lookup(key);
        if (was != now) {
            ++moved;
            // Every moved key must land on the joining node.
            EXPECT_EQ(now, kNodes);
        }
    }
    // Expected movement is K/(N+1); allow 2x for vnode variance.
    EXPECT_GT(moved, 0u);
    EXPECT_LE(moved, 2 * kKeys / (kNodes + 1));
}

TEST(HashRing, LeaveKeepsUnownedKeysInPlace)
{
    constexpr unsigned kNodes = 5;
    constexpr unsigned kVictim = 2;
    HashRing before;
    for (unsigned n = 0; n < kNodes; ++n)
        before.addNode(n);
    HashRing after = before;
    after.removeNode(kVictim);

    std::size_t moved = 0;
    for (const std::uint64_t key : propertyKeys()) {
        const unsigned was = before.lookup(key);
        const unsigned now = after.lookup(key);
        if (was == kVictim) {
            ++moved;
            EXPECT_NE(now, kVictim);
        } else {
            // Keys the victim never owned must not move at all.
            EXPECT_EQ(now, was);
        }
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LE(moved, 2 * kKeys / kNodes);
}

TEST(HashRing, PreferenceOrderStartsAtOwner)
{
    HashRing ring;
    for (unsigned n = 0; n < 4; ++n)
        ring.addNode(n);
    for (const std::uint64_t key : propertyKeys()) {
        const auto order = ring.preferenceOrder(key);
        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order.front(), ring.lookup(key));
        auto sorted = order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, (std::vector<unsigned>{0, 1, 2, 3}));
    }
}

TEST(ConsistentHashPlacement, KeyedDeterministicAndSkipsDraining)
{
    std::vector<ShardLoad> loads(4);
    for (unsigned i = 0; i < 4; ++i)
        loads[i].shard = i;

    ConsistentHashPlacement a, b;
    for (std::uint64_t key = 0; key < 512; ++key)
        EXPECT_EQ(a.place(loads, key), b.place(loads, key));

    // Drain the owner of some key: the key must fall through to a
    // non-draining shard, deterministically.
    const std::uint64_t key = 77;
    const unsigned owner = a.place(loads, key);
    loads[owner].draining = true;
    const unsigned fallback = a.place(loads, key);
    EXPECT_NE(fallback, owner);
    EXPECT_EQ(fallback, a.place(loads, key));
}

TEST(ConsistentHashPlacement, UnkeyedIsLeastLoadedLowestIndexTie)
{
    std::vector<ShardLoad> loads(3);
    for (unsigned i = 0; i < 3; ++i)
        loads[i].shard = i;
    loads[0].sessions = 2;
    loads[1].sessions = 1;
    loads[2].sessions = 1;
    ConsistentHashPlacement p;
    // 1 and 2 tie on sessions and queueDepth: lowest index wins.
    EXPECT_EQ(p.place(loads), 1u);
    loads[1].queueDepth = 5;
    EXPECT_EQ(p.place(loads), 2u);
}

// ----------------------------------------------------------------------
// Admission control
// ----------------------------------------------------------------------

TEST(TenantAdmission, CapAcquireRelease)
{
    TenantAdmission admission;
    admission.setQuota("hot", TenantQuota{2, 1});
    auto hot = admission.tenant("hot");
    EXPECT_TRUE(hot->tryAcquire());
    EXPECT_TRUE(hot->tryAcquire());
    EXPECT_FALSE(hot->tryAcquire()); // over cap
    EXPECT_EQ(hot->shed.load(), 1u);
    hot->release();
    EXPECT_TRUE(hot->tryAcquire());
    hot->release();
    hot->release();
    EXPECT_EQ(hot->inFlight.load(), 0u);

    // Unquoted tenants are unlimited but still tracked.
    auto cold = admission.tenant("cold");
    for (unsigned i = 0; i < 100; ++i)
        EXPECT_TRUE(cold->tryAcquire());
    EXPECT_EQ(cold->inFlight.load(), 100u);
}

// ----------------------------------------------------------------------
// Router end-to-end over two real server instances
// ----------------------------------------------------------------------

/** One in-process cluster member: service + wire server. */
struct Instance
{
    std::unique_ptr<RimeService> service;
    std::unique_ptr<RimeServer> server;
    std::string endpoint;

    explicit Instance(unsigned resume_grace_ms = 0,
                      bool deterministic = false)
    {
        ServiceConfig cfg;
        cfg.scheduler.deterministic = deterministic;
        service = std::make_unique<RimeService>(std::move(cfg));
        ServerConfig scfg;
        scfg.tcp = "tcp:127.0.0.1:0";
        scfg.resumeGraceMs = resume_grace_ms;
        server = std::make_unique<RimeServer>(*service, scfg);
        EXPECT_TRUE(server->start());
        endpoint =
            "tcp:127.0.0.1:" + std::to_string(server->tcpPort());
    }
};

net::ClientConfig
fastClient()
{
    net::ClientConfig cc;
    cc.connectAttempts = 2;
    cc.backoffBaseMs = 5;
    cc.readTimeoutMs = 10000;
    return cc;
}

RouterConfig
routerOver(const std::vector<Instance *> &instances)
{
    RouterConfig cfg;
    for (const Instance *inst : instances)
        cfg.members.push_back(
            MemberConfig{inst->endpoint, fastClient()});
    return cfg;
}

constexpr unsigned kValues = 32;
constexpr std::uint64_t kRangeBytes = kValues * 4;

std::vector<std::uint64_t>
rankKeys(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys(kValues);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    // The exactness checks below want set semantics: dedup.
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

/** malloc+store+init a shuffled copy of `keys`; returns the base. */
Addr
armSession(ClusterSession &s, std::vector<std::uint64_t> keys)
{
    Rng rng(99);
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[rng() % i]);
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = keys.size() * 4;
    const Response alloc = s.call(std::move(r));
    EXPECT_TRUE(alloc.ok());
    Request store;
    store.kind = RequestKind::StoreArray;
    store.start = alloc.addr;
    store.values = keys;
    EXPECT_TRUE(s.call(std::move(store)).ok());
    Request init;
    init.kind = RequestKind::Init;
    init.start = alloc.addr;
    init.end = alloc.addr + keys.size() * 4;
    EXPECT_TRUE(s.call(std::move(init)).ok());
    return alloc.addr;
}

std::vector<std::uint64_t>
topK(ClusterSession &s, Addr base, std::uint64_t bytes,
     std::uint64_t count)
{
    Request r;
    r.kind = RequestKind::TopK;
    r.start = base;
    r.end = base + bytes;
    r.count = count;
    const Response resp = s.call(std::move(r));
    std::vector<std::uint64_t> out;
    for (const auto &item : resp.items)
        out.push_back(item.raw);
    return out;
}

TEST(ClusterRouter, RanksAcrossInstances)
{
    Instance a, b;
    ClusterRouter router(routerOver({&a, &b}));
    ASSERT_TRUE(router.connect());

    std::vector<std::shared_ptr<ClusterSession>> sessions;
    for (unsigned i = 0; i < 6; ++i) {
        ClusterSessionConfig cfg;
        cfg.tenant = "t" + std::to_string(i % 3);
        auto s = router.openSession(cfg);
        ASSERT_NE(s, nullptr);
        sessions.push_back(std::move(s));
    }
    // Placement spreads over both instances (6 sessions, 2 members,
    // bounded-load cap keeps either side <= fair share * factor).
    std::map<unsigned, unsigned> homes;
    for (const auto &s : sessions)
        ++homes[s->member()];
    EXPECT_EQ(homes.size(), 2u);

    for (unsigned i = 0; i < sessions.size(); ++i) {
        auto keys = rankKeys(100 + i);
        const Addr base = armSession(*sessions[i], keys);
        const std::uint64_t bytes = keys.size() * 4;
        const auto got =
            topK(*sessions[i], base, bytes, keys.size());
        EXPECT_EQ(got, keys); // keys is sorted + deduped
        sessions[i]->close();
    }
}

TEST(ClusterRouter, DrainContinuesExtractionExactly)
{
    Instance a, b;
    ClusterRouter router(routerOver({&a, &b}));
    ASSERT_TRUE(router.connect());

    ClusterSessionConfig cfg;
    cfg.tenant = "drainme";
    auto s = router.openSession(cfg);
    ASSERT_NE(s, nullptr);
    const auto keys = rankKeys(7);
    const Addr base = armSession(*s, keys);
    const std::uint64_t bytes = keys.size() * 4;

    // Extract a prefix, drain the homing instance, extract the rest:
    // the union must be exactly the sorted keys, no value lost or
    // duplicated across the migration.
    const std::uint64_t prefix = keys.size() / 3;
    const auto before = topK(*s, base, bytes, prefix);
    const unsigned old_home = s->member();
    EXPECT_EQ(router.drainInstance(old_home), 1u);
    EXPECT_NE(s->member(), old_home);
    const auto after =
        topK(*s, base, bytes, keys.size() - prefix);

    std::vector<std::uint64_t> all = before;
    all.insert(all.end(), after.begin(), after.end());
    EXPECT_EQ(all, keys);
    EXPECT_EQ(router.stats().migrations, 1u);
    EXPECT_EQ(router.stats().lostSessions, 0u);
    s->close();
}

TEST(ClusterRouter, ShutdownNoticeTriggersEvacuation)
{
    Instance a, b;
    ClusterRouter router(routerOver({&a, &b}));
    ASSERT_TRUE(router.connect());

    ClusterSessionConfig cfg;
    cfg.tenant = "mover";
    std::vector<std::shared_ptr<ClusterSession>> sessions;
    for (unsigned i = 0; i < 4; ++i) {
        auto s = router.openSession(cfg);
        ASSERT_NE(s, nullptr);
        const auto keys = rankKeys(50 + i);
        armSession(*s, keys);
        sessions.push_back(std::move(s));
    }

    // Graceful shutdown of instance a: the wire notice flips the
    // member to Draining and maintain() evacuates it.
    a.server->beginDrain();
    Member &m = router.membership().member(0);
    for (unsigned spin = 0;
         spin < 200 && !m.client->shutdownAdvised(); ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(m.client->shutdownAdvised());
    router.maintain();
    EXPECT_EQ(m.healthNow(), MemberHealth::Draining);
    for (const auto &s : sessions)
        EXPECT_EQ(s->member(), 1u);
    // The notice is operational, not a protocol error.
    EXPECT_EQ(m.client->protocolErrors(), 0u);
    for (auto &s : sessions)
        s->close();
}

TEST(ClusterRouter, QuotaShedsWithoutBlocking)
{
    // Deterministic schedulers: nothing completes until start(), so
    // admission slots stay held and the shed decision is exact.
    Instance a(0, /*deterministic=*/true);
    Instance b(0, /*deterministic=*/true);
    ClusterRouter router(routerOver({&a, &b}));
    ASSERT_TRUE(router.connect());
    router.setTenantQuota("hot", TenantQuota{2, 1});

    ClusterSessionConfig cfg;
    cfg.tenant = "hot";
    cfg.maxInFlight = 16;
    auto s = router.openSession(cfg);
    ASSERT_NE(s, nullptr);

    std::vector<std::future<Response>> futures;
    for (unsigned i = 0; i < 5; ++i) {
        Request r;
        r.kind = RequestKind::Health;
        futures.push_back(s->submit(std::move(r)));
    }
    // The over-cap submissions completed instantly, shed.
    unsigned shed = 0;
    for (auto &f : futures) {
        if (f.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            const Response r = f.get();
            EXPECT_EQ(r.status, ServiceStatus::Rejected);
            EXPECT_EQ(r.reject, RejectReason::QuotaExceeded);
            ++shed;
        }
    }
    EXPECT_EQ(shed, 3u);
    EXPECT_EQ(router.stats().shedQuota, 3u);

    router.start();
    // The two admitted requests complete Ok and release their slots.
    unsigned served = 0;
    for (auto &f : futures) {
        if (f.valid() &&
            f.wait_for(std::chrono::seconds(10)) ==
                std::future_status::ready) {
            ++served;
        }
    }
    EXPECT_EQ(served, 2u);
    auto hot = router.admission().tenant("hot");
    for (unsigned spin = 0;
         spin < 200 && hot->inFlight.load() != 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(hot->inFlight.load(), 0u);
    s->close();
}

// ----------------------------------------------------------------------
// Session resumption over a plain RimeClient
// ----------------------------------------------------------------------

TEST(SessionResumption, ReattachAfterReconnect)
{
    Instance inst(/*resume_grace_ms=*/5000);
    net::ClientConfig cc = fastClient();
    cc.endpoint = inst.endpoint;
    RimeClient client(cc);
    ASSERT_TRUE(client.connect());

    const std::uint64_t session = client.openSession("resumer");
    ASSERT_NE(session, 0u);
    const std::uint64_t token = client.sessionToken(session);
    EXPECT_NE(token, 0u);

    const auto keys = rankKeys(21);
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = keys.size() * 4;
    const Response alloc = client.call(session, std::move(r));
    ASSERT_TRUE(alloc.ok());
    Request store;
    store.kind = RequestKind::StoreArray;
    store.start = alloc.addr;
    store.values = keys;
    ASSERT_TRUE(client.call(session, std::move(store)).ok());
    Request init;
    init.kind = RequestKind::Init;
    init.start = alloc.addr;
    init.end = alloc.addr + keys.size() * 4;
    ASSERT_TRUE(client.call(session, std::move(init)).ok());

    Request top1;
    top1.kind = RequestKind::TopK;
    top1.start = alloc.addr;
    top1.end = alloc.addr + keys.size() * 4;
    top1.count = 3;
    const Response first = client.call(session, std::move(top1));
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.items.size(), 3u);

    // Drop the connection; the server parks the session instead of
    // closing it.  Reattach and continue extracting.
    client.disconnect();
    ASSERT_TRUE(client.connect());
    EXPECT_TRUE(client.resumeSession(session));

    Request top2;
    top2.kind = RequestKind::TopK;
    top2.start = alloc.addr;
    top2.end = alloc.addr + keys.size() * 4;
    top2.count = keys.size() - 3;
    const Response rest = client.call(session, std::move(top2));
    ASSERT_TRUE(rest.ok() || rest.status == ServiceStatus::Empty);

    std::vector<std::uint64_t> all;
    for (const auto &item : first.items)
        all.push_back(item.raw);
    for (const auto &item : rest.items)
        all.push_back(item.raw);
    EXPECT_EQ(all, keys); // continued exactly; nothing re-extracted
    EXPECT_TRUE(client.closeSession(session));
}

TEST(SessionResumption, WrongTokenAndExpiryAreRejected)
{
    Instance inst(/*resume_grace_ms=*/100);
    net::ClientConfig cc = fastClient();
    cc.endpoint = inst.endpoint;
    RimeClient client(cc);
    ASSERT_TRUE(client.connect());

    const std::uint64_t session = client.openSession("expirer");
    ASSERT_NE(session, 0u);

    // Wrong token: rejected, connection intact.
    client.disconnect();
    ASSERT_TRUE(client.connect());
    EXPECT_FALSE(client.resumeSession(session, 0xdeadbeef));
    EXPECT_TRUE(client.connected());

    // Past the grace: the parked session is reaped and gone.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_FALSE(client.resumeSession(session));
    EXPECT_EQ(client.protocolErrors(), 0u);
}

} // namespace
