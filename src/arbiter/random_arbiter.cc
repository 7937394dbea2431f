#include "arbiter/random_arbiter.h"

namespace ss {

RandomArbiter::RandomArbiter(Simulator* simulator, const std::string& name,
                             const Component* parent, std::uint32_t size,
                             const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
}

std::uint32_t
RandomArbiter::select()
{
    // Uniform over requesters: the pick-th one in index order.
    std::uint64_t pick = random().nextU64(numRequests_);
    return static_cast<std::uint32_t>(requests_.nth(pick));
}

SS_REGISTER(ArbiterFactory, "random", RandomArbiter);

}  // namespace ss
