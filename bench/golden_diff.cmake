# golden_diff.cmake — runs one bench binary and holds its stdout to a
# committed golden, byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P golden_diff.cmake
#
# On a difference the run's stdout is written to <golden file name>.actual
# in the working directory, for diffing.
foreach(var BENCH GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_diff.cmake: -D${var}= is required")
  endif()
endforeach()

execute_process(COMMAND ${BENCH} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}\n${err}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; the run's stdout is in ${name}.actual")
endif()
