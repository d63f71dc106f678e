// util::ResultSlab — the slab-allocated result-channel arena under the
// serving layer's query tickets. Pinned here: the open → fulfil → get round
// trip for values and errors; the warm path recycles slots with ZERO slab
// growth; a stale channel (recycled slot, old generation) is rejected, never
// misdelivered; double fulfilment is tolerated (first answer wins); an
// abandoned ticket's slot recycles once the producer finishes; tickets
// outlive the slab that opened them; a Batch buffers fulfilments and lands
// them under one lock/one wake-up with the same tolerant semantics; a
// concurrent producer/consumer storm delivers every value to exactly the
// right ticket; and get()'s spin-then-park wait loses no wake-up.

#include <gtest/gtest.h>

#include <chrono>
#include <future>  // std::future_status — the ticket's wait_for vocabulary
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spin_handoff.h"
#include "util/result_slab.h"

namespace varmor::util {
namespace {

using IntSlab = ResultSlab<int>;

TEST(ResultSlab, OpenFulfilGetRoundTrip) {
    IntSlab slab;
    auto [ch, ticket] = slab.open();
    EXPECT_TRUE(ticket.valid());

    ResultSlabStats st = slab.stats();
    EXPECT_EQ(st.capacity, 1u);
    EXPECT_EQ(st.in_use, 1u);
    EXPECT_EQ(st.opened, 1);
    EXPECT_EQ(st.recycled, 0);

    EXPECT_TRUE(slab.set_value(ch, 42));
    EXPECT_EQ(ticket.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(ticket.get(), 42);
    EXPECT_FALSE(ticket.valid());  // one-shot: consumed

    st = slab.stats();
    EXPECT_EQ(st.in_use, 0u);
    EXPECT_EQ(st.recycled, 1);
}

TEST(ResultSlab, ErrorPathRethrowsTheProducersException) {
    IntSlab slab;
    auto [ch, ticket] = slab.open();
    EXPECT_TRUE(slab.set_error(
        ch, std::make_exception_ptr(std::runtime_error("lane failed"))));
    try {
        (void)ticket.get();
        FAIL() << "get() must rethrow the producer's error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lane failed");
    }
    EXPECT_FALSE(ticket.valid());
    EXPECT_EQ(slab.stats().in_use, 0u);  // error delivery recycles too
}

TEST(ResultSlab, WarmPathRecyclesWithoutGrowingTheSlab) {
    IntSlab slab;
    const int kEpochs = 100;
    for (int i = 0; i < kEpochs; ++i) {
        auto [ch, ticket] = slab.open();
        ASSERT_TRUE(slab.set_value(ch, i));
        ASSERT_EQ(ticket.get(), i);
    }
    const ResultSlabStats st = slab.stats();
    EXPECT_EQ(st.capacity, 1u);  // one slot served every epoch
    EXPECT_EQ(st.opened, kEpochs);
    EXPECT_EQ(st.recycled, kEpochs);
    EXPECT_EQ(st.in_use, 0u);
}

TEST(ResultSlab, StaleChannelIsRejectedNeverMisdelivered) {
    IntSlab slab;
    auto [old_ch, old_ticket] = slab.open();
    ASSERT_TRUE(slab.set_value(old_ch, 1));
    ASSERT_EQ(old_ticket.get(), 1);  // slot recycled, generation bumped

    // The recycled slot backs a NEW channel at the same index.
    auto [ch, ticket] = slab.open();
    ASSERT_EQ(ch.idx, old_ch.idx);
    ASSERT_NE(ch.gen, old_ch.gen);

    // A producer still holding the OLD handle must be rejected — its write
    // must never reach the new channel's consumer.
    EXPECT_FALSE(slab.set_value(old_ch, 999));
    EXPECT_EQ(ticket.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);

    EXPECT_TRUE(slab.set_value(ch, 2));
    EXPECT_EQ(ticket.get(), 2);

    // An out-of-range handle (never opened) is likewise rejected.
    EXPECT_FALSE(slab.set_value(IntSlab::Channel{1000, 0}, 7));
}

TEST(ResultSlab, DoubleFulfilmentIsToleratedFirstAnswerWins) {
    IntSlab slab;
    auto [ch, ticket] = slab.open();
    EXPECT_TRUE(slab.set_value(ch, 10));
    // The batch catch-all sweeping already-answered members: tolerated, false.
    EXPECT_FALSE(slab.set_value(ch, 20));
    EXPECT_FALSE(slab.set_error(
        ch, std::make_exception_ptr(std::runtime_error("late error"))));
    EXPECT_EQ(ticket.get(), 10);
}

TEST(ResultSlab, AbandonedTicketRecyclesOnceProducerFinishes) {
    IntSlab slab;
    auto pair = slab.open();
    { ResultTicket<int> doomed = std::move(pair.second); }  // consumer gone
    // The producer side is still live: the slot must NOT recycle yet (a
    // recycle now would let a new open() collide with the pending fulfil).
    EXPECT_EQ(slab.stats().in_use, 1u);
    EXPECT_TRUE(slab.set_value(pair.first, 5));  // fulfil into the void
    const ResultSlabStats st = slab.stats();
    EXPECT_EQ(st.in_use, 0u);
    EXPECT_EQ(st.recycled, 1);
}

TEST(ResultSlab, ProducerFirstThenAbandonedTicketRecycles) {
    IntSlab slab;
    auto pair = slab.open();
    ASSERT_TRUE(slab.set_value(pair.first, 5));
    EXPECT_EQ(slab.stats().in_use, 1u);  // the unconsumed value parks the slot
    { ResultTicket<int> doomed = std::move(pair.second); }
    EXPECT_EQ(slab.stats().in_use, 0u);
}

TEST(ResultSlab, WaitForTimesOutThenTurnsReady) {
    IntSlab slab;
    auto [ch, ticket] = slab.open();
    EXPECT_EQ(ticket.wait_for(std::chrono::milliseconds(10)),
              std::future_status::timeout);
    EXPECT_TRUE(ticket.valid());  // waiting does not consume
    EXPECT_TRUE(slab.set_value(ch, 3));
    EXPECT_EQ(ticket.wait_for(std::chrono::milliseconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ticket.get(), 3);
    EXPECT_THROW((void)ticket.get(), Error);  // consumed: invalid
}

TEST(ResultSlab, MovedFromTicketIsInvalidAndMoveTargetCollects) {
    IntSlab slab;
    auto [ch, ticket] = slab.open();
    ResultTicket<int> target = std::move(ticket);
    EXPECT_FALSE(ticket.valid());
    EXPECT_TRUE(target.valid());
    EXPECT_TRUE(slab.set_value(ch, 11));
    EXPECT_EQ(target.get(), 11);
}

TEST(ResultSlab, TicketOutlivesTheSlabThatOpenedIt) {
    // A client holding a ticket across its batcher's destruction — the ticket
    // shares core ownership, so collection still works.
    ResultTicket<int> ticket;
    {
        IntSlab slab;
        auto pair = slab.open();
        ticket = std::move(pair.second);
        ASSERT_TRUE(slab.set_value(pair.first, 77));
    }  // slab handle destroyed
    EXPECT_EQ(ticket.get(), 77);
}

TEST(ResultSlab, ConcurrentProducersAndConsumersDeliverExactly) {
    IntSlab slab;
    const int kChannels = 64;
    const int kProducers = 4;
    const int kConsumers = 8;

    std::vector<IntSlab::Channel> channels;
    std::vector<ResultTicket<int>> tickets;
    for (int i = 0; i < kChannels; ++i) {
        auto [ch, t] = slab.open();
        channels.push_back(ch);
        tickets.push_back(std::move(t));
    }

    // Producers fulfil disjoint strided slices; consumers collect disjoint
    // contiguous slices — every ticket must see ITS channel's value.
    std::vector<std::thread> workers;
    for (int p = 0; p < kProducers; ++p)
        workers.emplace_back([&, p] {
            for (int i = p; i < kChannels; i += kProducers)
                EXPECT_TRUE(slab.set_value(channels[static_cast<std::size_t>(i)],
                                           1000 + i));
        });
    std::vector<std::vector<std::pair<int, int>>> seen(kConsumers);
    for (int c = 0; c < kConsumers; ++c)
        workers.emplace_back([&, c] {
            const int per = kChannels / kConsumers;
            for (int i = c * per; i < (c + 1) * per; ++i)
                seen[static_cast<std::size_t>(c)].emplace_back(
                    i, tickets[static_cast<std::size_t>(i)].get());
        });
    for (std::thread& w : workers) w.join();

    for (const auto& pairs : seen)
        for (const auto& [i, v] : pairs) EXPECT_EQ(v, 1000 + i);

    const ResultSlabStats st = slab.stats();
    EXPECT_EQ(st.opened, kChannels);
    EXPECT_EQ(st.recycled, kChannels);
    EXPECT_EQ(st.in_use, 0u);
    EXPECT_LE(st.capacity, static_cast<std::size_t>(kChannels));
}

TEST(ResultSlab, BatchCommitDeliversEveryBufferedResultAtOnce) {
    IntSlab slab;
    const int kChannels = 8;
    std::vector<IntSlab::Channel> channels;
    std::vector<ResultTicket<int>> tickets;
    for (int i = 0; i < kChannels; ++i) {
        auto [ch, t] = slab.open();
        channels.push_back(ch);
        tickets.push_back(std::move(t));
    }

    IntSlab::Batch batch(slab);
    for (int i = 0; i < kChannels - 1; ++i)
        batch.set_value(channels[static_cast<std::size_t>(i)], 100 + i);
    batch.set_error(channels[kChannels - 1],
                    std::make_exception_ptr(std::runtime_error("last fails")));
    // Nothing is visible before commit: the entries are buffered locally.
    EXPECT_EQ(tickets[0].wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    batch.commit();

    for (int i = 0; i < kChannels - 1; ++i)
        EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get(), 100 + i);
    EXPECT_THROW((void)tickets[kChannels - 1].get(), std::runtime_error);
    EXPECT_EQ(slab.stats().in_use, 0u);
}

TEST(ResultSlab, BatchKeepsTheTolerantFulfilmentSemantics) {
    IntSlab slab;
    auto [direct_ch, direct_ticket] = slab.open();
    ASSERT_TRUE(slab.set_value(direct_ch, 1));
    ASSERT_EQ(direct_ticket.get(), 1);  // recycled: direct_ch is now stale

    auto [ch, ticket] = slab.open();
    {
        // Destructor commits — a batch at task scope cannot strand channels.
        IntSlab::Batch batch(slab);
        batch.set_value(direct_ch, 999);  // stale: dropped at commit
        batch.set_value(ch, 5);
        batch.set_value(ch, 6);  // double fulfilment: first answer wins
    }
    EXPECT_EQ(ticket.get(), 5);
}

TEST(ResultSlab, MoveOnlyValueTypeMovesThroughTheSlot) {
    ResultSlab<std::unique_ptr<std::string>> slab;
    auto [ch, ticket] = slab.open();
    EXPECT_TRUE(slab.set_value(ch, std::make_unique<std::string>("payload")));
    const std::unique_ptr<std::string> got = ticket.get();
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(*got, "payload");
}

TEST(ResultSlab, SpinThenParkGetLosesNoWakeUp) {
    constexpr int kRounds = 1000;
    ResultSlab<int> slab;
    std::vector<std::pair<ResultSlab<int>::Channel, ResultTicket<int>>> opened;
    for (int r = 0; r < kRounds; ++r) opened.push_back(slab.open());
    varmor::testing::run_handoff_rounds(
        kRounds, [&](int r) { return opened[static_cast<std::size_t>(r)].second.get(); },
        [&](int r) { slab.set_value(opened[static_cast<std::size_t>(r)].first, r); },
        [&] {
            // Any commit on the slab notifies the condvar the consumer parks on.
            auto extra = slab.open();
            slab.set_value(extra.first, -1);
        });
}

}  // namespace
}  // namespace varmor::util
