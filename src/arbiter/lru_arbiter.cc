#include "arbiter/lru_arbiter.h"

namespace ss {

LruArbiter::LruArbiter(Simulator* simulator, const std::string& name,
                       const Component* parent, std::uint32_t size,
                       const json::Value& settings)
    : Arbiter(simulator, name, parent, size)
{
    (void)settings;
    for (std::uint32_t i = 0; i < size; ++i) {
        order_.push_back(i);
    }
}

std::uint32_t
LruArbiter::select()
{
    for (std::uint32_t client : order_) {
        if (requests_.test(client)) {
            return client;
        }
    }
    return kNone;
}

void
LruArbiter::grant(std::uint32_t winner)
{
    order_.remove(winner);
    order_.push_back(winner);
}

SS_REGISTER(ArbiterFactory, "lru", LruArbiter);

}  // namespace ss
