#include "detectors/EmptyTool.h"

#include "framework/FastPath.h"

const char *ft::EmptyTool::name() const { return "Empty"; }

FT_REGISTER_FAST_PATH(::ft::EmptyTool);
