#include "arbiter/age_arbiter.h"

namespace ss {

AgeArbiter::AgeArbiter(Simulator* simulator, const std::string& name,
                       const Component* parent, std::uint32_t size,
                       const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
}

std::uint32_t
AgeArbiter::select()
{
    // Oldest requester; among equals, the first at or after next_ in
    // round-robin order.
    std::uint32_t winner = kNone;
    std::uint64_t best = ~std::uint64_t{0};
    auto consider = [&](std::size_t client) {
        if (winner == kNone || metadata_[client] < best) {
            winner = static_cast<std::uint32_t>(client);
            best = metadata_[client];
        }
    };
    for (std::size_t c = requests_.next(next_); c < size_;
         c = requests_.next(c + 1)) {
        consider(c);
    }
    for (std::size_t c = requests_.next(0); c < next_;
         c = requests_.next(c + 1)) {
        consider(c);
    }
    return winner;
}

void
AgeArbiter::grant(std::uint32_t winner)
{
    next_ = (winner + 1) % size_;
}

SS_REGISTER(ArbiterFactory, "age", AgeArbiter);

}  // namespace ss
