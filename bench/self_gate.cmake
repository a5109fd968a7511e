# self_gate.cmake — smokes one bench gate binary at --scale 1: a first run
# writes a stamped report, a second run gates itself against that report.
#
#   cmake -DBENCH=<binary> -DNAME=<stem> ["-DFIRST=<args>"] ["-DGATE=<args>"]
#         -P self_gate.cmake
#
# FIRST adds arguments to the first run, GATE to the second (a wide
# --tolerance for wall-clock gates, --tolerance 0 and another --jobs for
# virtual-clock ones).
foreach(var BENCH NAME)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "self_gate.cmake: -D${var}= is required")
  endif()
endforeach()
separate_arguments(first_args UNIX_COMMAND "${FIRST}")
separate_arguments(gate_args UNIX_COMMAND "${GATE}")

execute_process(COMMAND ${BENCH} --scale 1 --out ${NAME}_first.json ${first_args}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: the first run exited ${rc}")
endif()
file(READ ${NAME}_first.json report)
foreach(stamp effective_cpus build_type)
  string(FIND "${report}" "\"${stamp}\":" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${NAME}: the report lacks its ${stamp} stamp")
  endif()
endforeach()

execute_process(COMMAND ${BENCH} --scale 1 --out ${NAME}_gated.json
                        --check ${NAME}_first.json ${gate_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "of baseline")
  message(FATAL_ERROR "${NAME}: the self-gate exited ${rc}\n${out}${err}")
endif()
