// Linked into every test binary: flight-recorder and profiler dumps that a
// test provokes (a DOWN transition, retry exhaustion, a fast SLO burn) go
// to NETCL_TEST_FLIGHT_DIR in the build tree, not to the working
// directory. A NETCL_FLIGHT_DIR already set in the environment wins.
#include <cstdlib>

namespace {

[[maybe_unused]] const bool kFlightDirSet =
    ::setenv("NETCL_FLIGHT_DIR", NETCL_TEST_FLIGHT_DIR, /*overwrite=*/0) == 0;

}  // namespace
