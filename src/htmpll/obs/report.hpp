// Build provenance for reports: the source revision a binary was built
// from, so a recorded number can be traced back to the code that
// produced it.
#pragma once

#include <string>

namespace htmpll::obs {

/// `git describe --always --dirty` of the source tree, taken afresh by
/// every build of the library ("unknown" when built outside a git
/// checkout or without git).
std::string git_describe();

}  // namespace htmpll::obs
