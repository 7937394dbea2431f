#include "arbiter/arbiter.h"

namespace ss {

Arbiter::Arbiter(Simulator* simulator, const std::string& name,
                 const Component* parent, std::uint32_t size)
    : Component(simulator, name, parent), size_(size), requests_(size)
{
    checkUser(size > 0, "arbiter size must be > 0");
    metadata_.resize(size, 0);
}

void
Arbiter::request(std::uint32_t client, std::uint64_t metadata)
{
    checkSim(client < size_, "arbiter request out of range");
    if (!requests_.test(client)) {
        requests_.set(client);
        ++numRequests_;
    }
    metadata_[client] = metadata;
}

void
Arbiter::cancel(std::uint32_t client)
{
    checkSim(client < size_, "arbiter cancel out of range");
    if (requests_.test(client)) {
        requests_.reset(client);
        --numRequests_;
    }
}

bool
Arbiter::requesting(std::uint32_t client) const
{
    checkSim(client < size_, "arbiter query out of range");
    return requests_.test(client);
}

std::uint32_t
Arbiter::arbitrate()
{
    if (numRequests_ == 0) {
        return kNone;
    }
    std::uint32_t winner = select();
    checkSim(winner < size_ && requests_.test(winner),
             "arbiter selected a non-requesting client");
    requests_.clear();
    numRequests_ = 0;
    return winner;
}

void
Arbiter::grant(std::uint32_t winner)
{
    (void)winner;  // stateless policies ignore grants
}

}  // namespace ss
