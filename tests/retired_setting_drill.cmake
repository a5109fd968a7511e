# retired_setting_drill.cmake — `resume` of a journal written with the
# retired --no-parse-cache switch. A copy of a golden journal whose header
# says "parse_cache":false must fail up front (exit 1), naming the setting,
# print no report, and be left byte for byte as it was.
#
#   cmake -DWSINTEROP=path/to/wsinterop -DJOURNAL=tests/data/propcheck_tiny.journal \
#         -P retired_setting_drill.cmake
foreach(var WSINTEROP JOURNAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "retired_setting_drill: ${var} is not set")
  endif()
endforeach()
file(READ "${JOURNAL}" golden)
string(REPLACE "\"parse_cache\":true" "\"parse_cache\":false" text "${golden}")
if(text STREQUAL golden)
  message(FATAL_ERROR "${JOURNAL} has no \"parse_cache\":true to switch off")
endif()
set(copy "retired_parse_cache.journal")
file(WRITE "${copy}" "${text}")

execute_process(
  COMMAND "${WSINTEROP}" resume "${copy}" --jobs 2
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
file(READ "${copy}" after)
file(REMOVE "${copy}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "resume of a parse_cache=false journal exited ${rc}, not 1")
endif()
if(NOT err MATCHES "parse_cache")
  message(FATAL_ERROR "resume failed without naming parse_cache: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "resume printed a report: ${out}")
endif()
if(NOT after STREQUAL text)
  message(FATAL_ERROR "resume changed the journal it refused")
endif()
