// Build provenance for reports: the source revision a binary was built
// from, so a recorded number can be traced back to the code that
// produced it.
#pragma once

#include <string>

namespace htmpll::obs {

/// Build-time `git describe --always --dirty` of the source tree
/// ("unknown" when the build was configured outside a git checkout).
std::string git_describe();

}  // namespace htmpll::obs
