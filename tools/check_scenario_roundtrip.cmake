# Two properties of the shared scenario schema and setup path:
#
# 1. Every committed scenario file survives `uqsim_run --config F
#    --dump-config` byte for byte (the field table's row order is the
#    emit order, and parse/emit read the same rows).
# 2. `uqsim_run --config F` prints the execution digest that
#    `uqsim_sweep --corpus` reports for F: the CLI and the headless
#    sweep deploy every shard through the same setup sequence.
#
# Inputs: RUN (uqsim_run binary), SWEEP (uqsim_sweep binary),
# SCENARIOS_DIR (the committed corpus), MATCH (file-name substring
# selecting the digest-checked slice).

file(GLOB corpus "${SCENARIOS_DIR}/*.json")
list(LENGTH corpus n_corpus)
if(n_corpus EQUAL 0)
    message(FATAL_ERROR "no scenario files under ${SCENARIOS_DIR}")
endif()

foreach(f ${corpus})
    execute_process(COMMAND "${RUN}" --config "${f}" --dump-config
        RESULT_VARIABLE rc OUTPUT_VARIABLE dumped)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "uqsim_run --config ${f} --dump-config "
            "failed (${rc})")
    endif()
    file(READ "${f}" committed)
    if(NOT dumped STREQUAL committed)
        message(FATAL_ERROR "--dump-config of ${f} differs from the file")
    endif()
endforeach()

execute_process(COMMAND "${SWEEP}" --corpus "${SCENARIOS_DIR}"
        --match "${MATCH}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE sweep ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "uqsim_sweep --corpus failed (${rc})")
endif()
string(REGEX MATCHALL "\"file\": \"[^\"]+\"" files "${sweep}")
string(REGEX MATCHALL "\"digest\": \"[0-9a-f]+\"" digests "${sweep}")
list(LENGTH files n_files)
list(LENGTH digests n_digests)
if(n_files EQUAL 0 OR NOT n_files EQUAL n_digests)
    message(FATAL_ERROR "cannot read file/digest pairs from the sweep")
endif()

math(EXPR last "${n_files} - 1")
foreach(i RANGE ${last})
    list(GET files ${i} file_entry)
    list(GET digests ${i} digest_entry)
    string(REGEX REPLACE ".*: \"([^\"]+)\"" "\\1" name "${file_entry}")
    string(REGEX REPLACE ".*: \"([^\"]+)\"" "\\1" want "${digest_entry}")
    execute_process(COMMAND "${RUN}" --config "${SCENARIOS_DIR}/${name}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "uqsim_run --config ${name} failed (${rc})")
    endif()
    if(NOT out MATCHES "execution digest +([0-9a-f]+)")
        message(FATAL_ERROR "no execution digest in uqsim_run output "
            "for ${name}")
    endif()
    if(NOT CMAKE_MATCH_1 STREQUAL want)
        message(FATAL_ERROR "${name}: uqsim_run digest ${CMAKE_MATCH_1} "
            "!= uqsim_sweep digest ${want}")
    endif()
endforeach()

message(STATUS "${n_corpus} scenarios round-trip; ${n_files} CLI "
    "digests match the sweep")
