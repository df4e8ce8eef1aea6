#include "sim/session.hpp"

namespace radio {

// The materialized-Graph instantiation (body in session.hpp), compiled once
// here; other backends instantiate their own where they are used.
template class BasicBroadcastSession<Graph>;

}  // namespace radio
