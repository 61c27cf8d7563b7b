# Writes OUTPUT, a header defining MIND_GIT_SHA as the short SHA of
# SOURCE_DIR's checked-out commit ("unknown" outside a git checkout).
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P build_stamp.cmake
#
# Run on every build by the mind_build_stamp target. The header is rewritten
# only when its content changes, so an unchanged HEAD recompiles nothing and
# a new commit recompiles only the file that includes it.
execute_process(
  COMMAND git -C ${SOURCE_DIR} rev-parse --short=12 HEAD
  OUTPUT_VARIABLE sha
  RESULT_VARIABLE failed
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(failed OR NOT sha)
  set(sha "unknown")
endif()
set(content "#define MIND_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
  if(old STREQUAL content)
    return()
  endif()
endif()
file(WRITE ${OUTPUT} "${content}")
