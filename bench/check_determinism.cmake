# Thread-count-invariance gate (DESIGN.md §7): run a bench in smoke
# mode at --threads 1 and --threads 8 with the same seed/config, and
# require each requested artifact to be bitwise identical and the
# metrics fingerprint to be identical. Invoked by the *_determinism
# ctest entries with
#   -DBENCH=<exe>            the bench to run
#   -DTAG=<name>             file tag of the artifacts in WORK_DIR
#   -DCOMPARE=<a>[,<b>]      artifacts compared bitwise: json (the
#                            --json result), trace (the --trace-out
#                            Chrome trace); may be empty
#   -DWORK_DIR=<dir>         writable work directory
# The --metrics-out fingerprint is always compared.

cmake_minimum_required(VERSION 3.16)

foreach(var BENCH TAG WORK_DIR)
    if(NOT ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()
string(REPLACE "," ";" artifacts "${COMPARE}")
foreach(artifact IN LISTS artifacts)
    if(NOT artifact MATCHES "^(json|trace)$")
        message(FATAL_ERROR "unknown artifact '${artifact}' in COMPARE")
    endif()
endforeach()

set(ENV{VBOOST_BENCH_SMOKE} 1)

set(prefix ${WORK_DIR}/${TAG}-det)
foreach(threads 1 8)
    set(args --threads ${threads}
        --metrics-out ${prefix}-metrics-t${threads}.json)
    if(json IN_LIST artifacts)
        list(APPEND args --json ${prefix}-json-t${threads}.json)
    endif()
    if(trace IN_LIST artifacts)
        list(APPEND args --trace-out ${prefix}-trace-t${threads}.json)
    endif()
    execute_process(
        COMMAND ${BENCH} ${args}
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${BENCH} --threads ${threads} failed (${rc}):\n"
            "${out}\n${err}")
    endif()
endforeach()

# Requested artifacts must match bitwise.
foreach(artifact IN LISTS artifacts)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${prefix}-${artifact}-t1.json
            ${prefix}-${artifact}-t8.json
        RESULT_VARIABLE cmp_rc)
    if(NOT cmp_rc EQUAL 0)
        message(FATAL_ERROR
            "${TAG} ${artifact} differs between --threads 1 and "
            "--threads 8 (${prefix}-${artifact}-t1.json vs "
            "${prefix}-${artifact}-t8.json)")
    endif()
endforeach()

# Metrics fingerprints must match.
foreach(threads 1 8)
    file(READ ${prefix}-metrics-t${threads}.json contents)
    string(REGEX MATCH "\"fingerprint\": ([0-9]+)" _ "${contents}")
    if(NOT CMAKE_MATCH_1)
        message(FATAL_ERROR
            "no fingerprint field in ${prefix}-metrics-t${threads}.json")
    endif()
    set(fp_t${threads} ${CMAKE_MATCH_1})
endforeach()
if(NOT fp_t1 STREQUAL fp_t8)
    message(FATAL_ERROR
        "${TAG} metrics fingerprint differs: threads=1 -> ${fp_t1}, "
        "threads=8 -> ${fp_t8}")
endif()

message(STATUS
    "${TAG} determinism OK: fingerprint ${fp_t1} and {${COMPARE}} "
    "bitwise identical at 1 vs 8 threads")
