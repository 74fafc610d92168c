//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "framework/FastPath.h"

namespace ft {

std::vector<FastPathEntry> &fastPaths() {
  static std::vector<FastPathEntry> Registry;
  return Registry;
}

const FastPathEntry *findFastPath(const Tool &Checker) {
  for (const FastPathEntry &Entry : fastPaths())
    if (*Entry.Type == typeid(Checker))
      return &Entry;
  return nullptr;
}

} // namespace ft
