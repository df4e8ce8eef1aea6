#include "sim/stream/stream_session.hpp"

namespace radio {

// The materialized-Graph instantiation (body in stream_session.hpp),
// compiled once here; other backends instantiate their own where used.
template class BasicStreamSession<Graph>;

}  // namespace radio
