#ifndef UCR_CORE_STORAGE_H_
#define UCR_CORE_STORAGE_H_

#include <string>
#include <string_view>

#include "core/system.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Whole-system persistence. The paper's §2 observes that practical
/// systems "store the explicit matrix and compute access control
/// authorizations as needed"; this module stores exactly that — the
/// hierarchy, the explicit matrix, and the configured strategy — in
/// one human-diffable text file:
///
///     # ucr system v1
///     strategy D+LP-
///     [hierarchy]
///     node S1
///     edge S1 S3
///     ...
///     [authorizations]
///     auth S2 obj read +
///     ...
///
/// Round-tripping is exact: node ids, object/right interning order,
/// and every effective decision are preserved (tested). The effective
/// matrix is deliberately NOT stored — it is derived state, and the
/// whole point of the unified algorithm is that it can be re-derived
/// under any strategy.

/// Serializes `system` (hierarchy + explicit matrix + strategy).
std::string SaveSystemToText(const AccessControlSystem& system);

/// Parses the `SaveSystemToText` format. The returned system has the
/// options given in `options`, except the strategy, which comes from
/// the file.
StatusOr<AccessControlSystem> LoadSystemFromText(std::string_view text,
                                                 SystemOptions options = {});

/// Convenience wrappers over files.
Status SaveSystemToFile(const AccessControlSystem& system,
                        const std::string& path);
StatusOr<AccessControlSystem> LoadSystemFromFile(const std::string& path,
                                                 SystemOptions options = {});

}  // namespace ucr::core

#endif  // UCR_CORE_STORAGE_H_
