// Process-wide heap-allocation counter for allocation-free contracts.
//
// allocation_counter.cpp replaces the global operator new/delete of the
// binary it is linked into; tests read the running count before and
// after the code under test.  The replacement lives in its own
// translation unit so no test code that inlines container allocations
// is compiled next to it.
#pragma once

#include <cstdint>

/// operator new calls (all forms) made by the process so far.
std::uint64_t heap_allocation_count();
